package nylon

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"whisper/internal/identity"
	"whisper/internal/netem"
	"whisper/internal/simnet"
	simtr "whisper/internal/transport/simnet"
	"whisper/internal/wire"
)

// newBareNode builds a minimal public node for white-box input testing.
func newBareNode(t testing.TB) *Node {
	t.Helper()
	s := simnet.New(1)
	nw := netem.New(s, netem.Fixed{})
	ident := &identity.Identity{ID: 1, Key: identity.TestKeys(1)[0]}
	return NewNode(simtr.New(s, nw), ident, 0, netem.Endpoint{IP: 5, Port: 1}, nil, Config{KeySampling: true, KeyBlobSize: 256})
}

// TestDispatchNeverPanicsOnGarbage feeds arbitrary datagrams into the
// protocol dispatcher: hostile or corrupted traffic must be dropped,
// never crash a node.
func TestDispatchNeverPanicsOnGarbage(t *testing.T) {
	n := newBareNode(t)
	f := func(payload []byte, srcIP uint32, srcPort uint16) bool {
		n.dispatch(netem.Datagram{
			Src:     netem.Endpoint{IP: netem.IP(srcIP), Port: srcPort},
			Dst:     n.Addr(),
			Payload: payload,
		})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(42))}); err != nil {
		t.Fatal(err)
	}
}

// TestDispatchTypedGarbage prefixes random bodies with every valid
// message tag, exercising each decoder's error paths.
func TestDispatchTypedGarbage(t *testing.T) {
	n := newBareNode(t)
	rng := rand.New(rand.NewSource(43))
	tags := []uint8{msgShuffleReq, msgShuffleResp, msgRelay, msgEchoReq, msgEchoResp,
		msgPunchReq, msgPunchProbe, msgProbeAck, msgKeyReq, msgKeyResp, MsgApp, 0, 0xFF}
	for _, tag := range tags {
		for i := 0; i < 200; i++ {
			body := make([]byte, rng.Intn(200))
			rng.Read(body)
			n.dispatch(netem.Datagram{
				Src:     netem.Endpoint{IP: 9, Port: 9},
				Dst:     n.Addr(),
				Payload: append([]byte{tag}, body...),
			})
		}
	}
	// The node is still functional afterwards.
	if n.Stopped() {
		t.Fatal("garbage stopped the node")
	}
}

// TestHostileRouteLengths: an oversized relay chain in a descriptor or a
// path, or an oversized buffer — any count field over its decoder limit —
// is a decode error (the decoders used to clamp it and parse the unread
// tail as the next field), while a count at the limit still decodes in
// full.
func TestHostileRouteLengths(t *testing.T) {
	ids := func(w *wire.Writer, n int) {
		w.U8(uint8(n))
		for i := 0; i < n; i++ {
			w.U64(uint64(i + 1))
		}
	}
	descriptor := func(w *wire.Writer, route int) {
		w.U64(7)
		w.Bool(false)
		w.U32(1)
		w.U16(1)
		ids(w, route)
	}
	// shuffle builds a shuffle body (behind the tag) with the given route
	// length in From, path length and entry count.
	shuffle := func(route, path, entries int) []byte {
		w := wire.NewWriter(0)
		w.U32(1)
		descriptor(w, route)
		ids(w, path)
		w.U8(uint8(entries))
		for i := 0; i < entries; i++ {
			descriptor(w, 0)
			w.U16(3)
		}
		w.Bool(false)
		return w.Bytes()
	}
	cases := []struct {
		name                  string
		routes, path, entries int // the counts the message claims (and carries)
		fail                  bool
	}{
		{name: "shuffle at every limit", routes: maxWireRoute, path: maxWirePath, entries: maxWireEntries},
		{name: "descriptor route over limit", routes: maxWireRoute + 1, fail: true},
		{name: "descriptor route 255", routes: 255, fail: true},
		{name: "shuffle path over limit", path: maxWirePath + 1, fail: true},
		{name: "shuffle entries over limit", entries: maxWireEntries + 1, fail: true},
		{name: "shuffle entries 255", entries: 255, fail: true},
	}
	for _, tc := range cases {
		sc := getScratch()
		m, err := decodeShuffle(wire.NewReader(shuffle(tc.routes, tc.path, tc.entries)), sc, 256)
		switch {
		case tc.fail && err == nil:
			t.Errorf("%s: decoded (route %d, path %d, entries %d), want an error",
				tc.name, len(m.From.Route), len(m.Path), len(m.Entries))
		case !tc.fail && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case !tc.fail && (len(m.From.Route) != tc.routes || len(m.Path) != tc.path || len(m.Entries) != tc.entries):
			t.Errorf("%s: decoded route %d, path %d, entries %d, want %d/%d/%d",
				tc.name, len(m.From.Route), len(m.Path), len(m.Entries), tc.routes, tc.path, tc.entries)
		}
		sc.release()
	}

	// The other users of the path decoder fail the same way.
	over := func(build func(w *wire.Writer)) *wire.Reader {
		w := wire.NewWriter(0)
		build(w)
		return wire.NewReader(w.Bytes())
	}
	sc := getScratch()
	defer sc.release()
	if _, err := decodeRelay(over(func(w *wire.Writer) { ids(w, maxWirePath+1); w.U64(5); w.Bytes32(nil) }), sc); err == nil {
		t.Error("relay with an over-limit path decoded")
	}
	if _, err := decodePunchReq(over(func(w *wire.Writer) { w.U64(1); w.U32(4); w.U16(2); ids(w, maxWirePath+1) }), sc); err == nil {
		t.Error("punch request with an over-limit path decoded")
	}
	if _, err := decodeKeyMsg(over(func(w *wire.Writer) { descriptor(w, maxWireRoute+1); w.Padded(nil, 256) }), sc, 256); err == nil {
		t.Error("key message with an over-limit route decoded")
	}
}

// TestRouteOnlyContactHasNoEndpoint is a regression test: learnRoute
// creates contact entries that carry only a relay chain. Such entries
// must never be reported as direct-send targets — an earlier version
// returned their zero endpoint and datagrams vanished into the void.
func TestRouteOnlyContactHasNoEndpoint(t *testing.T) {
	n := newBareNode(t)
	n.learnRoute(42, []identity.NodeID{7})
	if _, ok := n.contactEndpoint(42); ok {
		t.Fatal("route-only contact reported a (zero) direct endpoint")
	}
	if n.usableContact(42) {
		t.Fatal("route-only contact considered directly usable")
	}
	// The stored route itself is unusable too until relay 7 is a live
	// contact.
	if _, ok := n.storedRoute(42); ok {
		t.Fatal("stored route usable without a live first relay")
	}
	n.learnContact(7, netem.Endpoint{IP: 9, Port: 9}, true)
	route, ok := n.storedRoute(42)
	if !ok || len(route) != 1 || route[0] != 7 {
		t.Fatalf("stored route = %v, %v", route, ok)
	}
}

// TestContactTTLExpiry verifies contacts age out with virtual time and
// that public contacts get the longer liveness window.
func TestContactTTLExpiry(t *testing.T) {
	s := simnet.New(1)
	nw := netem.New(s, netem.Fixed{})
	ident := &identity.Identity{ID: 1, Key: identity.TestKeys(1)[0]}
	n := NewNode(simtr.New(s, nw), ident, 0, netem.Endpoint{IP: 5, Port: 1}, nil,
		Config{ContactTTL: time.Minute})
	n.learnContact(2, netem.Endpoint{IP: 9, Port: 9}, false) // NATted peer
	n.learnContact(3, netem.Endpoint{IP: 8, Port: 8}, true)  // public peer
	if !n.usableContact(2) || !n.usableContact(3) {
		t.Fatal("fresh contacts unusable")
	}
	s.RunUntil(2 * time.Minute)
	if n.usableContact(2) {
		t.Fatal("NATted contact survived past its TTL")
	}
	if !n.usableContact(3) {
		t.Fatal("public contact expired too early (should get 4x TTL)")
	}
	s.RunUntil(10 * time.Minute)
	if n.usableContact(3) {
		t.Fatal("public contact never expires")
	}
}
