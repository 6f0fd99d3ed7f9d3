package wcl_test

import (
	"fmt"
	"testing"
	"time"

	"whisper/internal/identity"
	"whisper/internal/netem"
	"whisper/internal/nylon"
	"whisper/internal/obs"
	"whisper/internal/sim"
	"whisper/internal/transport"
	"whisper/internal/wcl"
	"whisper/internal/wire"
)

// buildCircuitWorld builds a converged world with the given WCL
// configuration (Π defaults to 3). The tests drive SendCircuit and
// SendStream explicitly; plain Send is one-shot.
func buildCircuitWorld(t testing.TB, seed int64, n int, cfg wcl.Config) *sim.World {
	t.Helper()
	if cfg.MinPublic == 0 {
		cfg.MinPublic = 3
	}
	w, err := sim.NewWorld(sim.Options{
		Seed:     seed,
		N:        n,
		NATRatio: 0.7,
		KeyPool:  identity.TestPool(64),
		WCL:      &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.StartAll()
	w.Sim.RunUntil(5 * time.Minute)
	return w
}

// TestCircuitEstablishAndZeroRSASteadyState is the tentpole assertion:
// after the one-time setup, 100 messages ride the circuit with zero
// RSA operations anywhere in the network — source, relays and exit do
// symmetric work only — and every message is delivered exactly once.
func TestCircuitEstablishAndZeroRSASteadyState(t *testing.T) {
	w := buildCircuitWorld(t, 41, 120, wcl.Config{})
	natted := w.LiveNatted()
	s, d := natted[0], natted[1]

	received := map[string]int{}
	d.WCL.OnReceive = func(p []byte) { received[string(p)]++ }

	// Establish: the first send pays the onion setup.
	var first *wcl.Result
	s.WCL.SendCircuit(destFor(w, d, 3), []byte("cell-0"), func(r wcl.Result) { first = &r })
	w.Sim.RunFor(30 * time.Second)
	if first == nil || first.Outcome == wcl.Failed {
		t.Fatalf("establishing send failed: %+v", first)
	}
	if !s.WCL.HasCircuit(d.ID()) {
		t.Fatal("no established circuit after first send")
	}
	st := s.WCL.Stats()
	if st.CircuitsEstablished != 1 || st.CircuitsOpen != 1 {
		t.Fatalf("established=%d open=%d, want 1/1", st.CircuitsEstablished, st.CircuitsOpen)
	}
	if setup := w.CPUTotal(); setup.RSAEncs == 0 || setup.RSADecs == 0 {
		t.Fatal("setup did not pay any RSA — circuit established without an onion?")
	}

	// Steady state: 100 cells, zero RSA anywhere.
	before := w.CPUTotal()
	const cells = 100
	results := 0
	for i := 1; i <= cells; i++ {
		s.WCL.SendCircuit(destFor(w, d, 3), []byte(fmt.Sprintf("cell-%d", i)), func(r wcl.Result) {
			if r.Outcome != wcl.Failed {
				results++
			}
		})
	}
	w.Sim.RunFor(30 * time.Second)
	after := w.CPUTotal()

	if results != cells {
		t.Fatalf("only %d/%d cells acknowledged", results, cells)
	}
	if got := after.RSAEncs - before.RSAEncs; got != 0 {
		t.Fatalf("steady state performed %d RSA encryptions, want 0", got)
	}
	if got := after.RSADecs - before.RSADecs; got != 0 {
		t.Fatalf("steady state performed %d RSA decryptions, want 0", got)
	}
	if got := after.Signs + after.Verifys - before.Signs - before.Verifys; got != 0 {
		t.Fatalf("steady state performed %d RSA signature ops, want 0", got)
	}
	if after.AESOps == before.AESOps {
		t.Fatal("steady state did no symmetric work — cells not flowing?")
	}
	for msg, n := range received {
		if n != 1 {
			t.Fatalf("%q delivered %d times, want exactly once", msg, n)
		}
	}
	if len(received) != cells+1 {
		t.Fatalf("delivered %d distinct messages, want %d", len(received), cells+1)
	}
	st = s.WCL.Stats()
	if st.CircuitsEstablished != 1 {
		t.Fatalf("steady state re-established circuits: %d", st.CircuitsEstablished)
	}
	if st.CellsAcked < cells {
		t.Fatalf("CellsAcked=%d < %d", st.CellsAcked, cells)
	}
	// The cells crossed real relays: someone forwarded them.
	var forwarded uint64
	for _, n := range w.Live() {
		forwarded += n.WCL.Stats().CellsForwarded
	}
	if forwarded < cells {
		t.Fatalf("CellsForwarded=%d across the network, want ≥ %d (cells skipping mixes?)", forwarded, cells)
	}
}

// TestCircuitRotation: a circuit past its cell budget is replaced by a
// fresh path while traffic keeps flowing.
func TestCircuitRotation(t *testing.T) {
	w := buildCircuitWorld(t, 42, 120, wcl.Config{})
	natted := w.LiveNatted()
	s, d := natted[2], natted[3]

	received := map[string]int{}
	d.WCL.OnReceive = func(p []byte) { received[string(p)]++ }

	const sends = wcl.CircuitMaxCells + 100
	ok := 0
	for i := 0; i < sends; i++ {
		s.WCL.SendCircuit(destFor(w, d, 3), []byte(fmt.Sprintf("r-%d", i)), func(r wcl.Result) {
			if r.Outcome != wcl.Failed {
				ok++
			}
		})
		if i%50 == 0 {
			w.Sim.RunFor(2 * time.Second)
		}
	}
	w.Sim.RunFor(30 * time.Second)

	if ok < sends-1 {
		t.Fatalf("only %d/%d sends succeeded across rotations", ok, sends)
	}
	st := s.WCL.Stats()
	if st.CircuitsRotated == 0 {
		t.Fatalf("no rotation after %d cells with a %d-cell budget: %+v", sends, wcl.CircuitMaxCells, st)
	}
	if st.CircuitsEstablished < 2 {
		t.Fatalf("rotation never established a replacement path: %+v", st)
	}
	// Retired paths are closed, the live one stays: exactly one open.
	if st.CircuitsOpen != 1 {
		t.Fatalf("CircuitsOpen=%d after rotations, want 1", st.CircuitsOpen)
	}
	for msg, n := range received {
		if n != 1 {
			t.Fatalf("%q delivered %d times across rotation, want exactly once", msg, n)
		}
	}
}

// TestCircuitKeepaliveAndIdleTeardown: a quiet circuit is kept warm by
// pings every CircuitKeepalive, and one idle for CircuitIdle is torn
// down entirely.
func TestCircuitKeepaliveAndIdleTeardown(t *testing.T) {
	w := buildCircuitWorld(t, 43, 120, wcl.Config{})
	natted := w.LiveNatted()
	s, d := natted[4], natted[5]

	var res *wcl.Result
	s.WCL.SendCircuit(destFor(w, d, 3), []byte("hello"), func(r wcl.Result) { res = &r })
	w.Sim.RunFor(15 * time.Second)
	if res == nil || res.Outcome == wcl.Failed {
		t.Fatalf("establishing send failed: %+v", res)
	}

	// Quiet but not yet idle: pings flow, the circuit stays.
	w.Sim.RunFor(wcl.CircuitKeepalive + 10*time.Second)
	st := s.WCL.Stats()
	if st.Keepalives == 0 {
		t.Fatalf("no keepalive ping on a quiet circuit: %+v", st)
	}
	if !s.WCL.HasCircuit(d.ID()) {
		t.Fatal("circuit torn down before CircuitIdle elapsed")
	}

	// Past the idle horizon (checked on the keepalive tick): torn down,
	// gauge back to zero.
	w.Sim.RunFor(wcl.CircuitIdle + wcl.CircuitKeepalive)
	if s.WCL.HasCircuit(d.ID()) {
		t.Fatal("idle circuit not torn down")
	}
	st = s.WCL.Stats()
	if st.CircuitsClosed == 0 || st.CircuitsOpen != 0 {
		t.Fatalf("idle teardown not accounted: closed=%d open=%d", st.CircuitsClosed, st.CircuitsOpen)
	}
}

// TestCircuitBreakFallsBackToOneShot: killing every relay that holds
// the circuit's table entries breaks the path; in-flight and later
// sends must still complete via the one-shot fallback.
func TestCircuitBreakFallsBackToOneShot(t *testing.T) {
	w := buildCircuitWorld(t, 44, 120, wcl.Config{})
	natted := w.LiveNatted()
	s, d := natted[6], natted[7]

	received := map[string]int{}
	d.WCL.OnReceive = func(p []byte) { received[string(p)]++ }

	var res *wcl.Result
	s.WCL.SendCircuit(destFor(w, d, 3), []byte("pre"), func(r wcl.Result) { res = &r })
	w.Sim.RunFor(20 * time.Second)
	if res == nil || res.Outcome == wcl.Failed || !s.WCL.HasCircuit(d.ID()) {
		t.Fatalf("circuit not established: %+v", res)
	}

	// Kill every node holding a relay-side entry (the mixes of this
	// circuit — nobody else has table state in this quiet world).
	killed := 0
	for _, n := range w.Live() {
		if n == s || n == d {
			continue
		}
		if n.WCL.Stats().CircuitTableEntries > 0 {
			w.Kill(n)
			killed++
		}
	}
	if killed == 0 {
		t.Fatal("no relay held a circuit table entry")
	}

	const sends = 6
	done := make([]int, sends)
	results := make([]*wcl.Result, sends)
	for i := 0; i < sends; i++ {
		i := i
		s.WCL.SendCircuit(destFor(w, d, 3), []byte(fmt.Sprintf("post-%d", i)), func(r wcl.Result) {
			done[i]++
			results[i] = &r
		})
	}
	w.Sim.RunFor(2 * time.Minute)

	ok := 0
	for i := 0; i < sends; i++ {
		if done[i] != 1 {
			t.Fatalf("send %d: done called %d times, want exactly 1", i, done[i])
		}
		if results[i].Outcome != wcl.Failed {
			ok++
		}
	}
	if ok < sends-1 {
		t.Fatalf("only %d/%d sends survived the broken circuit", ok, sends)
	}
	st := s.WCL.Stats()
	if st.CellFallbacks == 0 {
		t.Fatalf("broken circuit produced no one-shot fallbacks: %+v", st)
	}
	for msg, n := range received {
		if n != 1 {
			t.Fatalf("%q delivered %d times, want exactly once", msg, n)
		}
	}
}

// circTag returns the WCL message tag (1..8) of an app payload, or 0.
func circTag(payload []byte) byte {
	if len(payload) == 0 || payload[0] > 8 {
		return 0
	}
	return payload[0]
}

// TestCircuitExactlyOnceUnderDuplication duplicates circuit wire
// messages — setup, data cells, acks, back-to-back and reordered — and
// requires exactly-once delivery plus exactly one Result per send.
func TestCircuitExactlyOnceUnderDuplication(t *testing.T) {
	cases := []struct {
		name  string
		dup   map[byte]bool
		delay time.Duration
	}{
		{"duplicated setup", map[byte]bool{3: true}, 0},
		{"duplicated data cell", map[byte]bool{5: true}, 0},
		{"reordered data cell", map[byte]bool{5: true}, 8 * time.Second},
		{"duplicated acks", map[byte]bool{4: true, 6: true}, 0},
		{"everything duplicated", map[byte]bool{3: true, 4: true, 5: true, 6: true, 7: true}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := buildCircuitWorld(t, 45, 120, wcl.Config{})
			for _, n := range w.Nodes {
				orig := n.Nylon.AppHandler
				n.Nylon.AppHandler = func(src transport.Endpoint, payload []byte) {
					// The handler owns the payload and may open it in place
					// (transport.Datagram): copy the duplicate first, as netem does.
					p := append([]byte(nil), payload...)
					orig(src, payload)
					if tc.dup[circTag(p)] {
						w.Sim.After(tc.delay, func() { orig(src, p) })
					}
				}
			}
			natted := w.LiveNatted()
			s, d := natted[0], natted[1]
			received := map[string]int{}
			d.WCL.OnReceive = func(p []byte) { received[string(p)]++ }

			const sends = 10
			done := make([]int, sends)
			ok := 0
			for i := 0; i < sends; i++ {
				i := i
				s.WCL.SendCircuit(destFor(w, d, 3), []byte(fmt.Sprintf("dup-%d", i)), func(r wcl.Result) {
					done[i]++
					if r.Outcome != wcl.Failed {
						ok++
					}
				})
				w.Sim.RunFor(time.Second)
			}
			w.Sim.RunFor(time.Minute)

			for i := 0; i < sends; i++ {
				if done[i] != 1 {
					t.Fatalf("send %d: done called %d times, want exactly 1", i, done[i])
				}
			}
			if ok < sends-1 {
				t.Fatalf("only %d/%d sends succeeded under %s", ok, sends, tc.name)
			}
			for msg, n := range received {
				if n != 1 {
					t.Fatalf("%q delivered %d times, want exactly once", msg, n)
				}
			}
			if tc.dup[5] {
				var dupCells uint64
				for _, n := range w.Live() {
					dupCells += n.WCL.Stats().DupCells
				}
				if dupCells == 0 {
					t.Fatal("duplicated data cells were never suppressed at the exit")
				}
			}
		})
	}
}

// TestCircuitExactlyOnceUnderFaultModel runs circuit traffic under the
// netem fault layer duplicating every datagram: the exit's cell dedup
// must keep delivery exactly-once.
func TestCircuitExactlyOnceUnderFaultModel(t *testing.T) {
	w, err := sim.NewWorld(sim.Options{
		Seed:     46,
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
	s, d := natted[0], natted[1]
	received := map[string]int{}
	d.WCL.OnReceive = func(p []byte) { received[string(p)]++ }

	const sends = 12
	ok := 0
	for i := 0; i < sends; i++ {
		s.WCL.SendCircuit(destFor(w, d, 3), []byte(fmt.Sprintf("fault-cell-%d", i)), func(r wcl.Result) {
			if r.Outcome != wcl.Failed {
				ok++
			}
		})
		w.Sim.RunFor(time.Second)
	}
	w.Sim.RunFor(2 * time.Minute)

	if ok < sends-2 {
		t.Fatalf("only %d/%d circuit sends succeeded under duplication faults", ok, sends)
	}
	for msg, n := range received {
		if n != 1 {
			t.Fatalf("%q delivered %d times, want exactly once", msg, n)
		}
	}
	var dupCells uint64
	for _, n := range w.Live() {
		dupCells += n.WCL.Stats().DupCells
	}
	if dupCells == 0 {
		t.Fatal("DupProb=1 produced zero suppressed duplicate cells")
	}
	if fs := w.Net.FaultStats(); fs.Duplicated == 0 {
		t.Fatalf("fault model idle: %+v", fs)
	}
}

// TestEarlyFailureEmitsOneResultAndNoTrace pins the unified
// early-failure path: a send that fails before any path state exists
// (unknown destination key) reports exactly one Result — Failed, zero
// attempts, zero elapsed — fires OnResult exactly once, and emits no
// trace event, through the one-shot and the circuit entry points alike.
func TestEarlyFailureEmitsOneResultAndNoTrace(t *testing.T) {
	w := buildCircuitWorld(t, 47, 60, wcl.Config{})
	s := w.Live()[0]
	cc := &obs.CorrelatingCollector{}
	s.WCL.Trace = obs.NewTracer(uint64(s.Nylon.ID()), cc)

	entryPoints := map[string]func(wcl.Dest, []byte, func(wcl.Result)){
		"send":        s.WCL.Send,
		"sendCircuit": s.WCL.SendCircuit,
	}
	for name, send := range entryPoints {
		t.Run(name, func(t *testing.T) {
			evBefore := len(cc.Events())
			sentBefore := s.WCL.Stats().Sent
			failedBefore := s.WCL.Stats().Failed
			onResults := 0
			s.WCL.OnResult = func(id identity.NodeID, r wcl.Result) { onResults++ }
			defer func() { s.WCL.OnResult = nil }()

			done := 0
			var res wcl.Result
			send(wcl.Dest{ID: 999}, []byte("x"), func(r wcl.Result) {
				done++
				res = r
			})
			w.Sim.RunFor(5 * time.Second)

			if done != 1 {
				t.Fatalf("done called %d times, want exactly 1", done)
			}
			if onResults != 1 {
				t.Fatalf("OnResult fired %d times, want exactly 1", onResults)
			}
			if res.Outcome != wcl.Failed || res.Attempts != 0 || res.Elapsed != 0 {
				t.Fatalf("early failure result = %+v, want Failed with 0 attempts and 0 elapsed", res)
			}
			if got := len(cc.Events()) - evBefore; got != 0 {
				t.Fatalf("early failure emitted %d trace events, want 0", got)
			}
			if got := s.WCL.Stats().Sent - sentBefore; got != 1 {
				t.Fatalf("Sent advanced by %d, want 1", got)
			}
			if got := s.WCL.Stats().Failed - failedBefore; got != 1 {
				t.Fatalf("Failed advanced by %d, want 1", got)
			}
		})
	}
}

// TestCircuitsDisabledIsZeroBehavior fingerprints the default
// configuration: while nothing opens a circuit, one-shot traffic must
// leave every circuit counter at zero on every node, never put a
// circuit message tag on the wire, and never emit a circuit trace
// kind — the circuit code is provably off-path.
func TestCircuitsDisabledIsZeroBehavior(t *testing.T) {
	w := buildWCLWorld(t, 48, 120)
	cc := &obs.CorrelatingCollector{}
	for _, n := range w.Live() {
		n.WCL.Trace = obs.NewTracer(uint64(n.Nylon.ID()), cc)
	}
	tagsSeen := map[byte]int{}
	w.Net.SetTap(func(dg netem.Datagram) {
		r := wire.NewReader(dg.Payload)
		if r.U8() != nylon.MsgApp {
			return
		}
		if tag := r.U8(); r.Err() == nil && tag >= 1 && tag <= 8 {
			tagsSeen[tag]++
		}
	})

	natted := w.LiveNatted()
	ok := 0
	const sends = 10
	for i := 0; i < sends; i++ {
		s := natted[i%len(natted)]
		d := natted[(i+5)%len(natted)]
		s.WCL.Send(destFor(w, d, 3), []byte(fmt.Sprintf("plain-%d", i)), func(r wcl.Result) {
			if r.Outcome != wcl.Failed {
				ok++
			}
		})
	}
	w.Sim.RunFor(time.Minute)
	if ok < sends-1 {
		t.Fatalf("only %d/%d one-shot sends succeeded", ok, sends)
	}

	if tagsSeen[1] == 0 || tagsSeen[2] == 0 {
		t.Fatalf("tap missed one-shot traffic (parse drift?): %v", tagsSeen)
	}
	for tag := byte(3); tag <= 8; tag++ {
		if tagsSeen[tag] != 0 {
			t.Fatalf("circuit wire tag %d appeared %d times with circuits disabled", tag, tagsSeen[tag])
		}
	}
	for _, n := range w.Live() {
		st := n.WCL.Stats()
		if st.CircuitsOpened+st.CircuitsEstablished+st.CircuitsFailed+st.CircuitsRotated+
			st.CircuitsClosed+st.CellsSent+st.CellsAcked+st.CellsForwarded+st.CellsDelivered+
			st.DupCells+st.CellDrops+st.CellFallbacks+st.Keepalives != 0 {
			t.Fatalf("node %d has non-zero circuit counters with circuits disabled: %+v", n.ID(), st)
		}
		if st.CircuitsOpen != 0 || st.CircuitTableEntries != 0 {
			t.Fatalf("node %d has circuit gauge state with circuits disabled", n.ID())
		}
	}
	for _, ev := range cc.Events() {
		if ev.Kind == obs.KindCellSend || ev.Kind == obs.KindCellForward || ev.Kind == obs.KindCellDeliver {
			t.Fatalf("circuit trace kind %v emitted with circuits disabled", ev.Kind)
		}
	}
}
