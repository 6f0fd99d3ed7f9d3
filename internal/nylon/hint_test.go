package nylon

import (
	"testing"

	"whisper/internal/identity"
	"whisper/internal/pss"
	"whisper/internal/transport"
	"whisper/internal/wire/wiretest"
)

// TestEncoderSizeHints pins every nylon encoder's size hint on inputs
// shaped like the workloads': a 5-entry shuffle buffer with relay
// routes, with and without the 1 KiB sampled key.
func TestEncoderSizeHints(t *testing.T) {
	key := identity.TestKeys(1)[0].Public()
	route := []identity.NodeID{7, 8}
	from := Descriptor{ID: 1, Contact: transport.Endpoint{IP: transport.PrivateBase + 1, Port: 9}, Route: route}
	var entries []pss.Entry[Descriptor]
	for i := 0; i < 5; i++ {
		d := Descriptor{ID: identity.NodeID(10 + i), Public: i%2 == 0, Contact: transport.Endpoint{IP: 3, Port: 1}}
		if !d.Public {
			d.Route = route
		}
		entries = append(entries, pss.Entry[Descriptor]{Val: d, Age: uint16(i)})
	}
	// The shuffle encoder ships the buffer from a node's point of view:
	// one of the N-node entries is a live contact (shipped with the node
	// alone as its route), the others keep their route behind the node.
	plain, keyed := newBareNode(t), newBareNode(t)
	plain.cfg = sharedConfig(Config{KeyBlobSize: 1024}.withDefaults())
	keyed.cfg = sharedConfig(Config{KeySampling: true, KeyBlobSize: 1024}.withDefaults())
	for _, n := range []*Node{plain, keyed} {
		n.learnContact(11, transport.Endpoint{IP: 3, Port: 1}, false)
	}
	sample := make([]pss.Entry[Descriptor], len(entries)) // the encoder rewrites its input
	shuffle := func(n *Node, typ uint8, withSelf bool) func() []byte {
		return func() []byte {
			copy(sample, entries)
			return n.encodeShuffle(typ, 3, route, withSelf, sample)
		}
	}
	relay := &relayMsg{Path: route, Final: 5, Inner: make([]byte, 1100)}
	punch := &punchReq{From: 1, Ext: transport.Endpoint{IP: 4, Port: 2}, Path: route}
	km := &keyMsg{From: from, Key: key}
	wiretest.CheckSizeHints(t, []wiretest.Encoder{
		{Name: "shuffle", Encode: shuffle(plain, msgShuffleReq, true)},
		{Name: "shuffle+key", Encode: shuffle(keyed, msgShuffleResp, false)},
		{Name: "relay", Encode: relay.encode},
		{Name: "relay/direct", Encode: (&relayMsg{Final: 5, Inner: make([]byte, 64)}).encode},
		{Name: "echoResp", Encode: func() []byte { return encodeEchoResp(transport.Endpoint{IP: 4, Port: 2}) }},
		{Name: "punchReq", Encode: punch.encode},
		{Name: "key", Encode: func() []byte { return km.encode(msgKeyReq, 1024) }},
		{Name: "id", Encode: func() []byte { return encodeIDMsg(msgPunchProbe, 9) }},
	})
}
