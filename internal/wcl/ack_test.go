package wcl

import (
	"testing"

	"whisper/internal/identity"
	"whisper/internal/netem"
	"whisper/internal/nylon"
	"whisper/internal/simnet"
	simtr "whisper/internal/transport/simnet"
)

// TestAckStateBoundedByTTL spreads forwards over ten ackTTLs, ten per
// TTL: the backward-routing table must hold only entries still alive,
// an ack arriving within the TTL must still route back, and a path
// remembered again later keeps its newer entry when its first write
// expires.
func TestAckStateBoundedByTTL(t *testing.T) {
	const ttl, step = ackTTL, ackTTL / 10
	s := simnet.New(1)
	nw := netem.New(s, netem.Fixed{})
	ident := &identity.Identity{ID: 1, Key: identity.TestKeys(1)[0]}
	node := nylon.NewNode(simtr.New(s, nw), ident, 0, netem.Endpoint{IP: 5, Port: 1}, nil,
		nylon.Config{KeySampling: true, KeyBlobSize: 256})
	w, err := New(node, Config{})
	if err != nil {
		t.Fatal(err)
	}
	back := hopBack{from: 2, direct: netem.Endpoint{IP: 6, Port: 1}}

	const retried = 1_000_000
	w.rememberAck(retried, back)
	for i := uint64(1); i <= 100; i++ {
		s.RunFor(step)
		if i == 8 {
			w.rememberAck(retried, back) // a retry through this hop
		}
		w.rememberAck(i, back)
		for id, e := range w.ackState {
			if s.Now() > e.expires {
				t.Fatalf("t=%v: path %d kept past its expiry %v", s.Now(), id, e.expires)
			}
		}
		if n := len(w.ackState); n > int(ttl/step)+2 {
			t.Fatalf("t=%v: %d entries, want at most one TTL's worth", s.Now(), n)
		}
		if i == 12 {
			if _, ok := w.ackState[retried]; !ok {
				t.Fatal("the first write's expiry deleted the retry's newer entry")
			}
		}
	}

	acks := w.st.AcksForwarded
	s.RunFor(ttl - step)
	w.sendAckBack(100)
	if got := w.st.AcksForwarded; got != acks+1 {
		t.Fatalf("ack within the TTL not routed back (forwarded %d → %d)", acks, got)
	}
	s.RunFor(2 * step)
	w.sendAckBack(100)
	if got := w.st.AcksForwarded; got != acks+1 {
		t.Fatal("ack after the TTL routed back")
	}
}
