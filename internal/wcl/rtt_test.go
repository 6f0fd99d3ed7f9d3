package wcl

import (
	"testing"
	"time"

	"whisper/internal/crypt"
	"whisper/internal/identity"
	"whisper/internal/netem"
	"whisper/internal/nylon"
	simtr "whisper/internal/transport/simnet"
)

// TestCellRTOEstimator pins RFC 6298's arithmetic and the floor.
func TestCellRTOEstimator(t *testing.T) {
	const ms = time.Millisecond
	var e rttEstimator
	e.sample(100 * ms) // SRTT 100, RTTVAR 50
	if got := e.rto(); got != 300*ms {
		t.Fatalf("rto after one 100 ms sample = %v, want 300ms", got)
	}
	e.sample(200 * ms) // RTTVAR (3·50+100)/4 = 62.5, SRTT (7·100+200)/8 = 112.5
	if e.srtt != 112500*time.Microsecond || e.rttvar != 62500*time.Microsecond {
		t.Fatalf("srtt=%v rttvar=%v, want 112.5ms and 62.5ms", e.srtt, e.rttvar)
	}
	if got := e.rto(); got != 362500*time.Microsecond {
		t.Fatalf("rto = %v, want 362.5ms", got)
	}
	lan := rttEstimator{}
	lan.sample(2 * ms)
	if got := lan.rto(); got != rtoFloor {
		t.Fatalf("rto on a 2 ms path = %v, want the %v floor", got, rtoFloor)
	}
}

// TestCellRetransmitGivesNoRTTSample: Karn's rule. The ack of a cell
// that was re-sent cannot say which copy it answers, so it leaves the
// path's estimator alone; the ack of a cell sent once is sampled.
func TestCellRetransmitGivesNoRTTSample(t *testing.T) {
	w := newBareWCL(t)
	sim := w.rt.(*simtr.Transport).Sim()
	keys, err := crypt.DeriveCircuitKeys(make([]byte, crypt.CircuitSecretSize), 3)
	if err != nil {
		t.Fatal(err)
	}
	c := w.OpenCircuit(Dest{ID: 2, Key: identity.TestKeys(1)[0].Public()})
	p := &circPath{c: c, id: 7, keys: keys, established: true,
		first:        nylon.Descriptor{ID: 3, Public: true, Contact: netem.Endpoint{IP: 9, Port: 1}},
		pendingCells: make(map[uint64]*pendingCell)}
	p.rtt.sample(10 * time.Millisecond)
	c.cur, w.circByID[p.id] = p, p

	var results []Result
	done := func(r Result) { results = append(results, r) }

	// Nobody acks: the cell is re-sent once the RTO has passed.
	c.Send([]byte("retransmitted"), done)
	sim.RunFor(rtoFloor + time.Millisecond)
	if got := w.Stats().CellRetransmits; got != 1 {
		t.Fatalf("%d retransmits one RTO after the send, want 1", got)
	}
	before := p.rtt
	w.handleCircCellAck(p.id, 1)
	if len(results) != 1 || results[0].Outcome != Success {
		t.Fatalf("results %+v, want one Success", results)
	}
	if p.rtt != before {
		t.Fatalf("a retransmitted cell's ack moved the estimator: %+v → %+v", before, p.rtt)
	}

	// Acked on its first copy: sampled.
	c.Send([]byte("sent once"), done)
	sim.RunFor(50 * time.Millisecond)
	w.handleCircCellAck(p.id, 2)
	if len(results) != 2 || results[1].Outcome != Success {
		t.Fatalf("results %+v, want two Successes", results)
	}
	if want := (7*before.srtt + 50*time.Millisecond) / 8; p.rtt.srtt != want {
		t.Fatalf("srtt = %v after a 50 ms sample, want %v", p.rtt.srtt, want)
	}
	if st := w.Stats(); st.CellRetransmits != 1 || st.CellFallbacks != 0 {
		t.Fatalf("retransmits=%d fallbacks=%d, want 1 and 0", st.CellRetransmits, st.CellFallbacks)
	}
}
