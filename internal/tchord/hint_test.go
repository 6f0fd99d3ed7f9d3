package tchord

import (
	"testing"

	"whisper/internal/identity"
	"whisper/internal/ppss"
	"whisper/internal/transport"
	"whisper/internal/wcl"
	"whisper/internal/wire/wiretest"
)

// TestEncoderSizeHints pins every T-Chord encoder's size hint with the
// entry shapes of the PPSS below it (P-node, and N-node with 3 helpers
// and 1 KiB key blobs).
func TestEncoderSizeHints(t *testing.T) {
	const blob = 1024
	key := identity.TestKeys(1)[0].Public()
	pub := ppss.Entry{ID: 1, IsPub: true, Contact: transport.Endpoint{IP: 3, Port: 1}, PubKey: key}
	nat := ppss.Entry{ID: 2, PubKey: key}
	for i := 0; i < 3; i++ {
		nat.Helpers = append(nat.Helpers, wcl.Helper{ID: identity.NodeID(10 + i), Endpoint: transport.Endpoint{IP: 4, Port: 1}, Key: key})
	}
	peers := []peer{peerOf(pub), peerOf(nat), peerOf(nat), peerOf(pub)}
	put := lookupMsg{QID: 1, Key: 2, Op: opPut, SKey: "some/key", Value: make([]byte, 200), Origin: nat, Hops: 3}
	get := lookupMsg{QID: 1, Key: 2, Op: opLookup, Origin: pub}
	resp := lookupRespMsg{QID: 1, Key: 2, Owner: nat, Hops: 3, Value: make([]byte, 200), Found: true}
	wiretest.CheckSizeHints(t, []wiretest.Encoder{
		{Name: "exchange", Encode: func() []byte { return encodePeers(tagTManReq, peers, blob) }},
		{Name: "lookup/put", Encode: func() []byte { return put.encode(blob) }},
		{Name: "lookup/P-node", Encode: func() []byte { return get.encode(blob) }},
		{Name: "lookupResp", Encode: func() []byte { return resp.encode(blob) }},
	})
}
