package wcl

import (
	"testing"
	"time"

	"whisper/internal/identity"
	"whisper/internal/netem"
	"whisper/internal/nylon"
	"whisper/internal/simnet"
	"whisper/internal/transport"
	simtr "whisper/internal/transport/simnet"
)

const ms = time.Millisecond

// newAttemptWCL returns a bare WCL whose backlog holds four keyed
// P-node mixes, and a destination with four keyed helpers: enough
// untried (A, B) combinations for every attempt of a run. Nothing
// answers at any of their endpoints, so every attempt times out unless
// the test acknowledges it.
func newAttemptWCL(t *testing.T) (*WCL, *simnet.Sim, Dest) {
	t.Helper()
	w := newBareWCL(t)
	keys := identity.TestKeys(9)
	dest := Dest{ID: 100, Key: keys[8].Public()}
	for i := 0; i < 4; i++ {
		mix := nylon.Descriptor{ID: identity.NodeID(10 + i), Public: true,
			Contact: netem.Endpoint{IP: transport.IP(10 + i), Port: 1}}
		w.node.Keys().Put(mix.ID, keys[i].Public())
		w.cb.Insert(mix, 0)
		dest.Helpers = append(dest.Helpers, Helper{ID: identity.NodeID(20 + i),
			Endpoint: netem.Endpoint{IP: transport.IP(20 + i), Port: 1}, Key: keys[4+i].Public()})
	}
	return w, w.rt.(*simtr.Transport).Sim(), dest
}

// onlyPending returns the single one-shot send in flight.
func onlyPending(t *testing.T, w *WCL) *pendingSend {
	t.Helper()
	if len(w.pending) != 1 {
		t.Fatalf("%d sends in flight, want 1", len(w.pending))
	}
	for _, st := range w.pending {
		return st
	}
	return nil
}

// wantAttempts runs the simulator to at and checks how many attempts
// the run has launched by then.
func wantAttempts(t *testing.T, sim *simnet.Sim, try *pathTry, at time.Duration, want int) {
	t.Helper()
	sim.RunUntil(at)
	if try.attempts != want {
		t.Fatalf("%d attempts at %v, want %d", try.attempts, at, want)
	}
}

// TestAttemptRetriesAtMeasuredRTO: once the node has measured an onion
// path, an unacknowledged attempt is retried on an alternative after
// the RTO, not after pathTimeout; the gauge shows that RTO.
func TestAttemptRetriesAtMeasuredRTO(t *testing.T) {
	w, sim, dest := newAttemptWCL(t)
	if got := w.Stats().PathRTOMs; got != 0 {
		t.Fatalf("wcl_path_rto_ms = %d before any sample, want 0", got)
	}
	w.sampleRTT(100 * ms) // SRTT 100, RTTVAR 50: RTO 300 ms
	if got := w.Stats().PathRTOMs; got != 300 {
		t.Fatalf("wcl_path_rto_ms = %d after a 100 ms sample, want 300", got)
	}
	t0 := sim.Now()
	w.Send(dest, []byte("x"), nil)
	st := onlyPending(t, w)
	wantAttempts(t, sim, &st.pathTry, t0+300*ms-1, 1)
	wantAttempts(t, sim, &st.pathTry, t0+300*ms, 2)
	wantAttempts(t, sim, &st.pathTry, t0+600*ms, 3)
}

// TestAttemptWaitsPathTimeoutBeforeSample: a node that has measured no
// path yet waits the full pathTimeout, not the estimator's floor.
func TestAttemptWaitsPathTimeoutBeforeSample(t *testing.T) {
	w, sim, dest := newAttemptWCL(t)
	t0 := sim.Now()
	w.Send(dest, []byte("x"), nil)
	st := onlyPending(t, w)
	wantAttempts(t, sim, &st.pathTry, t0+pathTimeout-1, 1)
	wantAttempts(t, sim, &st.pathTry, t0+pathTimeout, 2)
}

// TestAttemptRetriedAckGivesNoRTTSample: Karn's rule. Every attempt of
// a send shares its path ID, so the ack of a retried send cannot say
// which launch it answers and leaves the estimator alone; the ack of a
// send that made one attempt is sampled.
func TestAttemptRetriedAckGivesNoRTTSample(t *testing.T) {
	w, sim, dest := newAttemptWCL(t)
	w.sampleRTT(100 * ms)
	var results []Result
	done := func(r Result) { results = append(results, r) }

	t0 := sim.Now()
	w.Send(dest, []byte("retried"), done)
	st := onlyPending(t, w)
	wantAttempts(t, sim, &st.pathTry, t0+350*ms, 2)
	before := w.rtt
	w.handleAck(st.pathID)
	if len(results) != 1 || results[0].Outcome != AltSuccess {
		t.Fatalf("results %+v, want one AltSuccess", results)
	}
	if w.rtt != before {
		t.Fatalf("a retried send's ack moved the estimator: %+v → %+v", before, w.rtt)
	}

	t1 := sim.Now()
	w.Send(dest, []byte("sent once"), done)
	st = onlyPending(t, w)
	sim.RunUntil(t1 + 50*ms)
	w.handleAck(st.pathID)
	if len(results) != 2 || results[1].Outcome != Success {
		t.Fatalf("results %+v, want a Success after the AltSuccess", results)
	}
	if want := (7*before.srtt + 50*ms) / 8; w.rtt.srtt != want {
		t.Fatalf("srtt = %v after a 50 ms sample, want %v", w.rtt.srtt, want)
	}
}

// TestAttemptLastWaitsForDeadline: the earlier attempts retry at the
// RTO, but the last one gives up no earlier than maxAttempts ×
// pathTimeout after the first launch — when a run whose every attempt
// waited pathTimeout would have ended.
func TestAttemptLastWaitsForDeadline(t *testing.T) {
	w, sim, dest := newAttemptWCL(t)
	w.sampleRTT(100 * ms)
	var results []Result
	t0 := sim.Now()
	w.Send(dest, []byte("x"), func(r Result) { results = append(results, r) })
	st := onlyPending(t, w)
	n := w.cfg.maxAttempts()
	wantAttempts(t, sim, &st.pathTry, t0+time.Duration(n-1)*300*ms, n)
	deadline := t0 + time.Duration(n)*pathTimeout
	sim.RunUntil(deadline - 1)
	if len(results) != 0 {
		t.Fatalf("gave up at %v, before the %v deadline: %+v", results[0].Elapsed, deadline-t0, results)
	}
	sim.RunUntil(deadline)
	if len(results) != 1 || results[0].Outcome != Failed || results[0].NoAlternative ||
		results[0].Attempts != n || results[0].Elapsed != deadline-t0 {
		t.Fatalf("results %+v, want one Failed after %d attempts at %v", results, n, deadline-t0)
	}
}

// TestAttemptSetupRetryReadsNodeRTO: a circuit setup rides the same
// engine and the same per-node estimator — an RTO learnt from one-shot
// sends times its retry — and its acknowledgement, which names the
// attempt's fresh circuit ID, feeds both that estimator and the path's.
func TestAttemptSetupRetryReadsNodeRTO(t *testing.T) {
	w, sim, dest := newAttemptWCL(t)
	w.sampleRTT(100 * ms)
	t0 := sim.Now()
	c := w.OpenCircuit(dest)
	c.Send([]byte("queued"), nil)
	p := c.opening
	if p == nil {
		t.Fatal("no setup in flight")
	}
	wantAttempts(t, sim, &p.pathTry, t0+300*ms-1, 1)
	wantAttempts(t, sim, &p.pathTry, t0+300*ms, 2)
	sim.RunUntil(t0 + 350*ms)
	before := w.rtt
	w.handleCircAck(p.id)
	if !p.established {
		t.Fatal("the second attempt's ack did not establish the path")
	}
	if p.rtt.srtt != 50*ms {
		t.Fatalf("path srtt = %v, want the 50 ms setup round trip", p.rtt.srtt)
	}
	if want := (7*before.srtt + 50*ms) / 8; w.rtt.srtt != want {
		t.Fatalf("node srtt = %v after a 50 ms setup, want %v", w.rtt.srtt, want)
	}
}
