package ppss

import (
	"testing"

	"whisper/internal/crypt"
	"whisper/internal/identity"
	"whisper/internal/pss"
	"whisper/internal/transport"
	"whisper/internal/wcl"
	"whisper/internal/wire/wiretest"
)

// TestEncoderSizeHints pins every PPSS encoder's size hint on the two
// entry shapes that bracket the workloads: a P-node (no helpers) and an
// N-node shipping Π = 3 helpers, 1 KiB key blobs, a 128-byte passport
// signature.
func TestEncoderSizeHints(t *testing.T) {
	const blob = 1024
	key := identity.TestKeys(1)[0].Public()
	pub := Entry{ID: 1, IsPub: true, Contact: transport.Endpoint{IP: 3, Port: 1}, PubKey: key}
	nat := Entry{ID: 2, PubKey: key}
	for i := 0; i < 3; i++ {
		nat.Helpers = append(nat.Helpers, wcl.Helper{ID: identity.NodeID(10 + i), Endpoint: transport.Endpoint{IP: 4, Port: 1}, Key: key})
	}
	pass := Passport{Member: 2, Epoch: 1, Sig: make([]byte, 128)}
	accr := Accreditation{Group: 9, Invitee: 2, Sig: make([]byte, 128)}
	entries := []pss.Entry[Entry]{{Val: pub, Age: 1}, {Val: nat, Age: 2}, {Val: nat, Age: 3}, {Val: pub}, {Val: nat}}
	plain := extras{HBAge: 5, Epoch: 1}
	full := extras{HBAge: 5, Epoch: 1, Proposal: 7, Proposer: &nat,
		Announce: &keyAnnounce{Epoch: 2, NewKey: key, Leader: pass, LeaderKey: key, Sig: make([]byte, 128)},
		Digests:  []SubDigest{{Owner: 1, Version: 2, Blob: make([]byte, 64)}, {Owner: 2, Version: 1, Blob: make([]byte, 64)}}}
	shuffle := func(x extras) func() []byte {
		m := &shuffleMsg{Group: 9, Passport: pass, Seq: 4, From: nat, Entries: entries, Extras: x}
		return func() []byte { return m.encode(msgShuffleReq, blob) }
	}
	app := func(from Entry, n int) func() []byte {
		m := &appMsg{Group: 9, Passport: pass, From: from, Payload: make([]byte, n)}
		return func() []byte { return m.encode(blob) }
	}
	joinReq := &joinReq{Group: 9, Accr: accr, From: nat}
	joinResp := &joinResp{Group: 9, Passport: pass, History: []crypt.PublicKey{key, key}, Leader: pub, Entries: entries}
	pcp := &pcpMsg{Group: 9, Passport: pass, Seq: 4, From: nat}
	wiretest.CheckSizeHints(t, []wiretest.Encoder{
		{Name: "shuffle", Encode: shuffle(plain)},
		{Name: "shuffle+election", Encode: shuffle(full)},
		{Name: "app/P-node/64B", Encode: app(pub, 64)},
		{Name: "app/N-node/1KiB", Encode: app(nat, 1024)},
		{Name: "joinReq", Encode: func() []byte { return joinReq.encode(blob) }},
		{Name: "joinResp", Encode: func() []byte { return joinResp.encode(blob) }},
		{Name: "pcp", Encode: func() []byte { return pcp.encode(msgPCPPing, blob) }},
	})
}
