package wcl

import (
	"math/rand"
	"testing"
	"testing/quick"

	"whisper/internal/crypt"
	"whisper/internal/identity"
	"whisper/internal/netem"
	"whisper/internal/nylon"
	"whisper/internal/simnet"
	simtr "whisper/internal/transport/simnet"
)

func newBareWCL(t testing.TB) *WCL {
	t.Helper()
	s := simnet.New(1)
	nw := netem.New(s, netem.Fixed{})
	ident := &identity.Identity{ID: 1, Key: identity.TestKeys(1)[0]}
	node := nylon.NewNode(simtr.New(s, nw), ident, 0, netem.Endpoint{IP: 5, Port: 1}, nil,
		nylon.Config{KeySampling: true, KeyBlobSize: 256})
	w, err := New(node, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestHandleAppNeverPanics floods the WCL dispatcher with arbitrary app
// payloads: corrupted onions, bogus acks, truncated frames.
func TestHandleAppNeverPanics(t *testing.T) {
	w := newBareWCL(t)
	src := netem.Endpoint{IP: 9, Port: 9}
	f := func(payload []byte) bool {
		w.handleApp(src, payload)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(44))}); err != nil {
		t.Fatal(err)
	}
	// Tagged garbage exercising the typed decoders.
	rng := rand.New(rand.NewSource(45))
	for _, tag := range []uint8{msgForward, msgAck, 0, 0x7F} {
		for i := 0; i < 300; i++ {
			body := make([]byte, rng.Intn(300))
			rng.Read(body)
			w.handleApp(src, append([]byte{tag}, body...))
		}
	}
}

// TestForwardWithForeignOnion delivers a well-formed forward whose
// onion was built for someone else's key: the hop must drop it and
// count a peel error, leaking nothing.
func TestForwardWithForeignOnion(t *testing.T) {
	w := newBareWCL(t)
	foreign := identity.TestKeys(2)[1]
	k, err := crypt.NewSymKey()
	if err != nil {
		t.Fatal(err)
	}
	onion, err := crypt.BuildOnion(nil, []crypt.Hop{{Pub: foreign.Public()}}, k)
	if err != nil {
		t.Fatal(err)
	}
	m := forwardMsg{PathID: 7, From: 99, Onion: onion, Content: []byte("ct")}
	w.handleApp(netem.Endpoint{IP: 9, Port: 9}, payloadOf(m.encode()))
	if w.Stats().PeelErrors != 1 {
		t.Fatalf("peel errors = %d, want 1", w.Stats().PeelErrors)
	}
	if w.Stats().Delivered != 0 || w.Stats().ForwardsPeeled != 0 {
		t.Fatal("foreign onion was processed")
	}
}
