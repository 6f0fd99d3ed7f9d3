package wcl_test

import (
	"testing"
	"time"

	"whisper/internal/sim"
	"whisper/internal/transport"
	"whisper/internal/wcl"
)

// Wire tags of the circuit messages these tests drop (see circTag).
const (
	tagCircData    = 5
	tagCircCellAck = 6
)

// dropTag wraps every node's app handler so that datagrams carrying tag
// are lost while drop(n) — n counting the matching datagrams seen so
// far, from 1 — says so. It returns the count of datagrams dropped.
func dropTag(w *sim.World, tag byte, drop func(n int) bool) *int {
	seen, dropped := 0, new(int)
	for _, n := range w.Nodes {
		orig := n.Nylon.AppHandler
		n.Nylon.AppHandler = func(src transport.Endpoint, payload []byte) {
			if circTag(payload) == tag {
				seen++
				if drop(seen) {
					*dropped++
					return
				}
			}
			orig(src, payload)
		}
	}
	return dropped
}

// openCircuit builds a world and establishes a circuit between two
// NATted nodes with one acknowledged cell.
func openCircuit(t *testing.T, seed int64) (w *sim.World, s, d *sim.Node, received map[string]int) {
	t.Helper()
	w = buildCircuitWorld(t, seed, 120, wcl.Config{})
	natted := w.LiveNatted()
	s, d = natted[0], natted[1]
	received = map[string]int{}
	d.WCL.OnReceive = func(p []byte) { received[string(p)]++ }
	var first *wcl.Result
	s.WCL.SendCircuit(destFor(w, d, 3), []byte("setup"), func(r wcl.Result) { first = &r })
	w.Sim.RunFor(30 * time.Second)
	if first == nil || first.Outcome != wcl.Success || !s.WCL.HasCircuit(d.ID()) {
		t.Fatalf("circuit not established: %+v", first)
	}
	return w, s, d, received
}

// sendOne sends one cell and returns a pointer to its Results.
func sendOne(w *sim.World, s, d *sim.Node, msg string) *[]wcl.Result {
	var results []wcl.Result
	s.WCL.SendCircuit(destFor(w, d, 3), []byte(msg), func(r wcl.Result) { results = append(results, r) })
	return &results
}

// TestCellLostIsRetransmittedOnItsCircuit: a data cell lost on the
// first hop is re-sent on the same circuit at the path's RTO — one
// delivery, one Result, no one-shot fallback and no new circuit.
func TestCellLostIsRetransmittedOnItsCircuit(t *testing.T) {
	w, s, d, received := openCircuit(t, 47)
	dropped := dropTag(w, tagCircData, func(n int) bool { return n == 1 })
	results := sendOne(w, s, d, "lost-cell")
	w.Sim.RunFor(30 * time.Second)

	if *dropped != 1 {
		t.Fatalf("dropped %d data cells, want 1", *dropped)
	}
	if len(*results) != 1 || (*results)[0].Outcome != wcl.Success {
		t.Fatalf("results %+v, want exactly one Success", *results)
	}
	if received["lost-cell"] != 1 {
		t.Fatalf("delivered %d times, want exactly once", received["lost-cell"])
	}
	st := s.WCL.Stats()
	if st.CellFallbacks != 0 || st.CellRetransmits < 1 {
		t.Fatalf("fallbacks=%d retransmits=%d, want 0 and ≥ 1", st.CellFallbacks, st.CellRetransmits)
	}
	if st.CircuitsOpened != 1 || st.CircuitsClosed != 0 {
		t.Fatalf("opened=%d closed=%d: the loss cost the circuit", st.CircuitsOpened, st.CircuitsClosed)
	}
	if el := (*results)[0].Elapsed; el >= time.Second {
		t.Fatalf("recovered after %v, want well inside PathTimeout", el)
	}
}

// TestCellRetransmitIsTwoCopies: a retransmit goes out as two copies
// back to back, so a cell whose original and first retransmitted copy
// are both lost is still delivered by the first retransmit — once, with
// no second one.
func TestCellRetransmitIsTwoCopies(t *testing.T) {
	w, s, d, received := openCircuit(t, 50)
	dropped := dropTag(w, tagCircData, func(n int) bool { return n <= 2 })
	results := sendOne(w, s, d, "burst")
	w.Sim.RunFor(10 * time.Second)

	if *dropped != 2 {
		t.Fatalf("dropped %d data cells, want 2", *dropped)
	}
	if len(*results) != 1 || (*results)[0].Outcome != wcl.Success {
		t.Fatalf("results %+v, want exactly one Success", *results)
	}
	if received["burst"] != 1 {
		t.Fatalf("delivered %d times, want exactly once", received["burst"])
	}
	if st := s.WCL.Stats(); st.CellRetransmits != 1 || st.CellFallbacks != 0 {
		t.Fatalf("retransmits=%d fallbacks=%d, want 1 and 0", st.CellRetransmits, st.CellFallbacks)
	}
}

// TestCellLostAckIsDeliveredOnce: when only the acknowledgement is
// lost, the retransmit reaches an exit that already delivered the cell;
// its dedup re-acks without delivering again.
func TestCellLostAckIsDeliveredOnce(t *testing.T) {
	w, s, d, received := openCircuit(t, 48)
	dropped := dropTag(w, tagCircCellAck, func(n int) bool { return n == 1 })
	results := sendOne(w, s, d, "lost-ack")
	w.Sim.RunFor(30 * time.Second)

	if *dropped != 1 {
		t.Fatalf("dropped %d cell acks, want 1", *dropped)
	}
	if len(*results) != 1 || (*results)[0].Outcome != wcl.Success {
		t.Fatalf("results %+v, want exactly one Success", *results)
	}
	if received["lost-ack"] != 1 {
		t.Fatalf("delivered %d times, want exactly once", received["lost-ack"])
	}
	if st := s.WCL.Stats(); st.CellFallbacks != 0 || st.CellRetransmits < 1 {
		t.Fatalf("fallbacks=%d retransmits=%d, want 0 and ≥ 1", st.CellFallbacks, st.CellRetransmits)
	}
	if dup := d.WCL.Stats().DupCells; dup < 1 {
		t.Fatal("the exit never saw the retransmit as a duplicate")
	}
}

// TestCellDeadPathFallsBackAtPathTimeout: on a path that loses every
// data cell, a cell is retransmitted at the RTO (never more often than
// the floor allows) and falls back to one-shot exactly PathTimeout
// after its first send — no later than before retransmits existed.
func TestCellDeadPathFallsBackAtPathTimeout(t *testing.T) {
	w, s, d, received := openCircuit(t, 49)
	dropTag(w, tagCircData, func(int) bool { return true })
	const timeout = wcl.PathTimeout
	t0 := w.Sim.Now()
	results := sendOne(w, s, d, "dead-path")

	w.Sim.RunUntil(t0 + timeout - time.Nanosecond)
	st := s.WCL.Stats()
	if st.CellFallbacks != 0 {
		t.Fatalf("fell back before PathTimeout: %d fallbacks", st.CellFallbacks)
	}
	if most := uint64(timeout / (200 * time.Millisecond)); st.CellRetransmits < 1 || st.CellRetransmits > most {
		t.Fatalf("%d retransmits within PathTimeout, want 1..%d", st.CellRetransmits, most)
	}
	w.Sim.RunUntil(t0 + timeout)
	if st := s.WCL.Stats(); st.CellFallbacks != 1 {
		t.Fatalf("%d fallbacks at PathTimeout after the first send, want 1", st.CellFallbacks)
	}
	if s.WCL.HasCircuit(d.ID()) {
		t.Fatal("the dead path was not torn down")
	}

	w.Sim.RunFor(2 * time.Minute)
	if len(*results) != 1 || (*results)[0].Outcome == wcl.Failed {
		t.Fatalf("results %+v, want one delivered Result", *results)
	}
	if received["dead-path"] != 1 {
		t.Fatalf("delivered %d times, want exactly once", received["dead-path"])
	}
}
