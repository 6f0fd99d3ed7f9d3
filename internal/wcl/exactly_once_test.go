package wcl_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"whisper/internal/identity"
	"whisper/internal/netem"
	"whisper/internal/sim"
	"whisper/internal/transport"
	"whisper/internal/wcl"
)

// wclMsgTag returns the WCL message tag of an app payload (1 = forward,
// 2 = ack), or 0 for anything unparseable.
func wclMsgTag(payload []byte) byte {
	if len(payload) == 0 || payload[0] > 2 {
		return 0
	}
	return payload[0]
}

// injectDuplicates wraps every node's app handler so that messages with
// a tag in dup are processed a second time after delay — a deterministic
// stand-in for network duplication (delay 0 ⇒ back-to-back duplicate)
// and reordering (a delay long enough that the copy arrives after the
// path has completed).
func injectDuplicates(w *sim.World, dup map[byte]bool, delay time.Duration) {
	for _, n := range w.Nodes {
		orig := n.Nylon.AppHandler
		n.Nylon.AppHandler = func(src transport.Endpoint, payload []byte) {
			// The handler owns the payload and may open it in place
			// (transport.Datagram): copy the duplicate first, as netem does.
			p := append([]byte(nil), payload...)
			orig(src, payload)
			if dup[wclMsgTag(p)] {
				w.Sim.After(delay, func() { orig(src, p) })
			}
		}
	}
}

// TestExactlyOnceUnderDuplication drives sends through a world where
// forwards, acks, or both are duplicated — back-to-back or late
// (reordered past the path's completion) — and requires exactly-once
// observable behavior: one OnReceive and one Delivered increment per
// message, one done callback per send.
func TestExactlyOnceUnderDuplication(t *testing.T) {
	cases := []struct {
		name  string
		dup   map[byte]bool
		delay time.Duration
	}{
		{"duplicated forward", map[byte]bool{1: true}, 0},
		{"reordered forward", map[byte]bool{1: true}, 8 * time.Second},
		{"duplicated ack", map[byte]bool{2: true}, 0},
		{"forward and ack", map[byte]bool{1: true, 2: true}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := buildWCLWorld(t, 31, 120)
			injectDuplicates(w, tc.dup, tc.delay)

			natted := w.LiveNatted()
			received := map[string]int{}
			for _, n := range w.Live() {
				n.WCL.OnReceive = func(p []byte) { received[string(p)]++ }
			}
			var deliveredBefore uint64
			for _, n := range w.Live() {
				deliveredBefore += n.WCL.Stats().Delivered
			}

			const sends = 10
			doneCalls := make([]int, sends)
			results := make([]*wcl.Result, sends)
			for i := 0; i < sends; i++ {
				s := natted[i%len(natted)]
				d := natted[(i+5)%len(natted)]
				dest := destFor(w, d, 3)
				i := i
				s.WCL.Send(dest, []byte(fmt.Sprintf("msg-%d", i)), func(r wcl.Result) {
					doneCalls[i]++
					results[i] = &r
				})
			}
			w.Sim.RunFor(2 * time.Minute)

			ok := 0
			for i := 0; i < sends; i++ {
				if doneCalls[i] != 1 {
					t.Fatalf("send %d: done called %d times, want exactly 1", i, doneCalls[i])
				}
				if results[i].Outcome != wcl.Failed {
					ok++
				}
			}
			if ok < sends-1 {
				t.Fatalf("only %d/%d sends succeeded under %s", ok, sends, tc.name)
			}
			for msg, count := range received {
				if count != 1 {
					t.Fatalf("%q delivered %d times, want exactly once", msg, count)
				}
			}
			if len(received) < ok {
				t.Fatalf("%d distinct messages received < %d acked", len(received), ok)
			}
			var deliveredAfter, dupFwd, dupDeliv uint64
			for _, n := range w.Live() {
				deliveredAfter += n.WCL.Stats().Delivered
				dupFwd += n.WCL.Stats().DupForwards
				dupDeliv += n.WCL.Stats().DupDeliveries
			}
			if got := deliveredAfter - deliveredBefore; got != uint64(len(received)) {
				t.Fatalf("Delivered advanced by %d for %d distinct deliveries", got, len(received))
			}
			if tc.dup[1] && dupFwd+dupDeliv == 0 {
				t.Fatal("no duplicate forward was ever suppressed — injection not reaching the WCL?")
			}
		})
	}
}

// TestExactlyOnceUnderFaultModel runs the same property end-to-end under
// the netem fault layer: every datagram duplicated, a quarter reordered.
// The transport sees massive duplication; the application must not.
func TestExactlyOnceUnderFaultModel(t *testing.T) {
	w, err := sim.NewWorld(sim.Options{
		Seed:     32,
		N:        120,
		NATRatio: 0.7,
		KeyPool:  identity.TestPool(64),
		WCL:      &wcl.Config{MinPublic: 3},
		Faults: &netem.FaultModel{
			DupProb:       1,
			ReorderProb:   0.25,
			ReorderJitter: 200 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	w.StartAll()
	w.Sim.RunUntil(5 * time.Minute)

	natted := w.LiveNatted()
	received := map[string]int{}
	for _, n := range w.Live() {
		n.WCL.OnReceive = func(p []byte) { received[string(p)]++ }
	}
	var results []wcl.Result
	const sends = 10
	for i := 0; i < sends; i++ {
		s := natted[i%len(natted)]
		d := natted[(i+3)%len(natted)]
		s.WCL.Send(destFor(w, d, 3), []byte(fmt.Sprintf("fault-%d", i)),
			func(r wcl.Result) { results = append(results, r) })
	}
	w.Sim.RunFor(2 * time.Minute)

	if len(results) != sends {
		t.Fatalf("got %d results, want %d", len(results), sends)
	}
	ok := 0
	for _, r := range results {
		if r.Outcome != wcl.Failed {
			ok++
		}
	}
	if ok < sends-2 {
		t.Fatalf("only %d/%d sends succeeded under duplication faults: %+v", ok, sends, results)
	}
	for msg, count := range received {
		if count != 1 {
			t.Fatalf("%q delivered %d times, want exactly once", msg, count)
		}
	}
	if fs := w.Net.FaultStats(); fs.Duplicated == 0 || fs.Reordered == 0 {
		t.Fatalf("fault model idle: %+v", fs)
	}
	var dupFwd uint64
	for _, n := range w.Live() {
		dupFwd += n.WCL.Stats().DupForwards
	}
	if dupFwd == 0 {
		t.Fatal("DupProb=1 produced zero suppressed duplicate forwards")
	}
}

// TestDuplicateForwardAtDestResendsAck: when the destination has already
// delivered a path and sees the forward again (its ack was lost or
// outrun), it must answer with a fresh ack rather than stay silent, so
// the source does not burn a retry.
func TestDuplicateForwardAtDestResendsAck(t *testing.T) {
	w := buildWCLWorld(t, 33, 120)
	natted := w.LiveNatted()
	s, d := natted[0], natted[1]

	// Replay forwards at the destination only, well after delivery.
	var replayed int
	orig := d.Nylon.AppHandler
	d.Nylon.AppHandler = func(src transport.Endpoint, payload []byte) {
		// The handler owns the payload and may open it in place
		// (transport.Datagram): copy the duplicate first, as netem does.
		p := append([]byte(nil), payload...)
		orig(src, payload)
		if wclMsgTag(p) == 1 {
			replayed++
			w.Sim.After(3*time.Second, func() { orig(src, p) })
		}
	}

	var payloads [][]byte
	d.WCL.OnReceive = func(p []byte) { payloads = append(payloads, append([]byte(nil), p...)) }
	var res *wcl.Result
	s.WCL.Send(destFor(w, d, 3), []byte("once"), func(r wcl.Result) { res = &r })
	w.Sim.RunFor(time.Minute)

	if res == nil || res.Outcome == wcl.Failed {
		t.Fatalf("send failed: %+v", res)
	}
	if replayed == 0 {
		t.Fatal("destination never saw a forward (topology drift?)")
	}
	if len(payloads) != 1 || !bytes.Equal(payloads[0], []byte("once")) {
		t.Fatalf("destination delivered %d times", len(payloads))
	}
	if d.WCL.Stats().Delivered != 1 {
		t.Fatalf("Delivered = %d, want 1", d.WCL.Stats().Delivered)
	}
	if d.WCL.Stats().DupForwards+d.WCL.Stats().DupDeliveries == 0 {
		t.Fatal("replay not counted as suppressed duplicate")
	}
	// The replayed forward answered with an ack: more acks forwarded
	// than the single delivery strictly needs.
	if d.WCL.Stats().AcksForwarded < 2 {
		t.Fatalf("AcksForwarded = %d, want ≥ 2 (ack not resent on duplicate)", d.WCL.Stats().AcksForwarded)
	}
}

// TestAttemptLateAckOfFirstCompletesOnce: the node has measured its
// RTO, so the retries of a send whose first forward is held up go out
// early — and are lost here. The first attempt's forward, released
// after every retry was launched, is delivered, and its late ack
// completes the send, because the last attempt waits out the full
// deadline. One delivery, one Result.
func TestAttemptLateAckOfFirstCompletesOnce(t *testing.T) {
	const attempts = 4 // 1+Π, Π = 3
	w := buildWCLWorld(t, 26, 120)
	natted := w.LiveNatted()
	s, d := natted[0], natted[1]
	// One helper per attempt: a run that runs out of (A, B)
	// combinations ends when it does, deadline or not.
	dest := destFor(w, d, attempts)
	if len(dest.Helpers) < attempts {
		t.Fatalf("%d helpers, want %d", len(dest.Helpers), attempts)
	}
	received := map[string]int{}
	d.WCL.OnReceive = func(p []byte) { received[string(p)]++ }

	// One acknowledged single-attempt send gives the node its RTO.
	var warm *wcl.Result
	s.WCL.Send(dest, []byte("warm"), func(r wcl.Result) { warm = &r })
	w.Sim.RunFor(30 * time.Second)
	if warm == nil || warm.Outcome != wcl.Success {
		t.Fatalf("warm-up send: %+v", warm)
	}
	rto := time.Duration(s.WCL.Stats().PathRTOMs) * time.Millisecond
	hold := (attempts-1)*rto + time.Second
	if rto == 0 || hold+2*time.Second > attempts*wcl.PathTimeout {
		t.Fatalf("measured RTO %v leaves no room to hold the first forward", rto)
	}

	// The first forward seen is held for hold, and every forward seen
	// while it is held — the retries' first hops — is lost.
	held, released, lost := false, false, 0
	for _, n := range w.Nodes {
		orig := n.Nylon.AppHandler
		n.Nylon.AppHandler = func(src transport.Endpoint, payload []byte) {
			if released || wclMsgTag(payload) != 1 {
				orig(src, payload)
				return
			}
			if held {
				lost++
				return
			}
			held = true
			p := append([]byte(nil), payload...)
			w.Sim.After(hold, func() { released = true; orig(src, p) })
		}
	}
	var results []wcl.Result
	s.WCL.Send(dest, []byte("late"), func(r wcl.Result) { results = append(results, r) })
	w.Sim.RunFor(time.Minute)

	if lost != attempts-1 {
		t.Fatalf("lost %d retry forwards, want %d", lost, attempts-1)
	}
	if len(results) != 1 {
		t.Fatalf("%d Results, want exactly one: %+v", len(results), results)
	}
	if r := results[0]; r.Outcome != wcl.AltSuccess || r.Attempts != attempts || r.Elapsed < hold {
		t.Fatalf("result %+v, want AltSuccess after %d attempts, completed after the %v hold", r, attempts, hold)
	}
	if received["late"] != 1 {
		t.Fatalf("delivered %d times, want exactly once", received["late"])
	}
}
