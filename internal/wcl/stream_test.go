package wcl_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"whisper/internal/identity"
	"whisper/internal/netem"
	"whisper/internal/nylon"
	"whisper/internal/sim"
	"whisper/internal/wcl"
	"whisper/internal/wire"
)

// streamPayload builds a deterministic pseudo-random payload of n
// bytes (seeded so failures reproduce and corruption is detectable).
func streamPayload(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestStreamTransferBasic: a 64 KiB payload rides one circuit as a
// windowed fragment stream and arrives byte-identical, delivered
// exactly once, with the window gauge drained back to zero.
func TestStreamTransferBasic(t *testing.T) {
	w := buildCircuitWorld(t, 60, 120, wcl.Config{})
	natted := w.LiveNatted()
	s, d := natted[0], natted[1]

	var got [][]byte
	d.WCL.OnReceive = func(p []byte) { got = append(got, append([]byte(nil), p...)) }

	payload := streamPayload(1, 64<<10)
	var res *wcl.Result
	s.WCL.SendStream(destFor(w, d, 3), payload, func(r wcl.Result) { res = &r })
	w.Sim.RunFor(2 * time.Minute)

	if res == nil {
		t.Fatal("stream send never completed")
	}
	if res.Outcome == wcl.Failed {
		t.Fatalf("stream send failed: %+v", res)
	}
	if len(got) != 1 {
		t.Fatalf("delivered %d messages, want exactly 1", len(got))
	}
	if !bytes.Equal(got[0], payload) {
		t.Fatalf("reassembled payload differs: %d bytes vs %d sent", len(got[0]), len(payload))
	}
	st := s.WCL.Stats()
	if st.StreamsSent != 1 {
		t.Fatalf("StreamsSent = %d, want 1", st.StreamsSent)
	}
	if want := uint64(64); st.StreamFragsSent < want {
		t.Fatalf("StreamFragsSent = %d, want ≥ %d (64 KiB / 1 KiB frags)", st.StreamFragsSent, want)
	}
	if st.StreamWindow != 0 {
		t.Fatalf("window gauge = %d after completion, want 0", st.StreamWindow)
	}
	if st.StreamFallbacks != 0 {
		t.Fatalf("clean network produced %d stream fallbacks", st.StreamFallbacks)
	}
	dst := d.WCL.Stats()
	if dst.StreamsDelivered != 1 {
		t.Fatalf("StreamsDelivered = %d, want 1", dst.StreamsDelivered)
	}
	if dst.StreamFragsRecv != st.StreamFragsSent-st.StreamRetransmits {
		t.Logf("frags recv %d / sent %d / retx %d", dst.StreamFragsRecv, st.StreamFragsSent, st.StreamRetransmits)
	}
}

// TestStreamExactlyOnceUnderFaults is the table-driven exactly-once
// suite: streams under duplication, reordering, and Gilbert-Elliott
// burst loss must deliver every message byte-identical exactly once —
// the stream's retransmission plus the exit's dedup absorb the faults.
func TestStreamExactlyOnceUnderFaults(t *testing.T) {
	cases := []struct {
		name   string
		faults netem.FaultModel
	}{
		{"duplication", netem.FaultModel{DupProb: 1}},
		{"reordering", netem.FaultModel{ReorderProb: 0.35, ReorderJitter: 300 * time.Millisecond}},
		{"dup+reorder", netem.FaultModel{DupProb: 0.5, ReorderProb: 0.25, ReorderJitter: 200 * time.Millisecond}},
		{"burst loss", netem.FaultModel{Burst: &netem.GilbertElliott{
			PGoodBad: 0.02, PBadGood: 0.3, LossGood: 0.01, LossBad: 0.6,
		}}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			faults := tc.faults
			w, err := sim.NewWorld(sim.Options{
				Seed:     61,
				N:        120,
				NATRatio: 0.7,
				KeyPool:  identity.TestPool(64),
				WCL:      &wcl.Config{MinPublic: 3},
				Faults:   &faults,
			})
			if err != nil {
				t.Fatal(err)
			}
			w.StartAll()
			w.Sim.RunUntil(5 * time.Minute)

			natted := w.LiveNatted()
			s, d := natted[0], natted[1]
			var got [][]byte
			d.WCL.OnReceive = func(p []byte) { got = append(got, append([]byte(nil), p...)) }

			const msgs = 3
			payloads := make([][]byte, msgs)
			done := make([]int, msgs)
			ok := 0
			for i := 0; i < msgs; i++ {
				i := i
				payloads[i] = streamPayload(int64(100+i), 8<<10)
				s.WCL.SendStream(destFor(w, d, 3), payloads[i], func(r wcl.Result) {
					done[i]++
					if r.Outcome != wcl.Failed {
						ok++
					}
				})
			}
			w.Sim.RunFor(4 * time.Minute)

			for i := 0; i < msgs; i++ {
				if done[i] != 1 {
					t.Fatalf("message %d: done fired %d times, want exactly 1", i, done[i])
				}
			}
			if ok < msgs {
				t.Fatalf("only %d/%d stream sends succeeded under %s", ok, msgs, tc.name)
			}
			if len(got) != msgs {
				t.Fatalf("delivered %d messages, want exactly %d (duplicates or losses)", len(got), msgs)
			}
			// Byte-identical reassembly, zero duplicate deliveries:
			// match each delivery to exactly one sent payload.
			matched := make([]bool, msgs)
			for _, g := range got {
				found := false
				for i, p := range payloads {
					if !matched[i] && bytes.Equal(g, p) {
						matched[i] = true
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("a delivered message matches no sent payload (corrupt or duplicate reassembly)")
				}
			}
			if fs := w.Net.FaultStats(); fs.Duplicated == 0 && fs.BurstDropped == 0 && fs.Reordered == 0 {
				t.Fatalf("fault model idle under %s: %+v", tc.name, fs)
			}
		})
	}
}

// TestStreamRotationMidStream: messages of 100 fragments cross the
// rotation threshold mid-message, yet each stream message must finish
// on the path it started on (the rotation-drain rule) — byte-identical
// exactly-once delivery with rotations happening between messages.
func TestStreamRotationMidStream(t *testing.T) {
	w := buildCircuitWorld(t, 62, 120, wcl.Config{})
	natted := w.LiveNatted()
	s, d := natted[2], natted[3]

	var got [][]byte
	d.WCL.OnReceive = func(p []byte) { got = append(got, append([]byte(nil), p...)) }

	const msgs, frags = 8, 100 // 800 cells: the sixth message crosses the 512-cell budget
	payloads := make([][]byte, msgs)
	ok := 0
	for i := 0; i < msgs; i++ {
		payloads[i] = streamPayload(int64(200+i), frags*wcl.DefaultStreamFragSize)
		s.WCL.SendStream(destFor(w, d, 3), payloads[i], func(r wcl.Result) {
			if r.Outcome != wcl.Failed {
				ok++
			}
		})
		w.Sim.RunFor(30 * time.Second)
	}
	w.Sim.RunFor(2 * time.Minute)

	if ok < msgs {
		t.Fatalf("only %d/%d stream messages succeeded across rotations", ok, msgs)
	}
	if len(got) != msgs {
		t.Fatalf("delivered %d messages, want exactly %d", len(got), msgs)
	}
	for i, p := range payloads {
		if !bytes.Equal(got[i], p) {
			t.Fatalf("message %d not byte-identical after rotation (len %d vs %d)", i, len(got[i]), len(p))
		}
	}
	st := s.WCL.Stats()
	if st.CircuitsRotated == 0 {
		t.Fatalf("no rotation with a %d-cell budget and %d×%d fragment messages: %+v", wcl.CircuitMaxCells, msgs, frags, st)
	}
	if st.StreamFallbacks != 0 {
		t.Fatalf("rotation mid-stream forced %d one-shot fallbacks — messages split across circuits?", st.StreamFallbacks)
	}
}

// TestStreamBackpressureSheds: a bounded stream queue refuses overflow
// immediately with ErrStreamBacklog instead of buffering without
// limit; the accepted messages still all deliver.
func TestStreamBackpressureSheds(t *testing.T) {
	w := buildCircuitWorld(t, 63, 120, wcl.Config{})
	natted := w.LiveNatted()
	s, d := natted[4], natted[5]

	delivered := 0
	d.WCL.OnReceive = func([]byte) { delivered++ }

	// Burst far past the queue bound before the sim runs: the overflow
	// must shed synchronously.
	const burst = wcl.StreamQueueMax + 6
	shed, accepted := 0, 0
	for i := 0; i < burst; i++ {
		s.WCL.SendStream(destFor(w, d, 3), streamPayload(int64(300+i), 4<<10), func(r wcl.Result) {
			if errors.Is(r.Err, wcl.ErrStreamBacklog) {
				shed++
				return
			}
			if r.Outcome != wcl.Failed {
				accepted++
			}
		})
	}
	if shed != burst-wcl.StreamQueueMax {
		t.Fatalf("shed %d of %d, want %d (queue bound %d)", shed, burst, burst-wcl.StreamQueueMax, wcl.StreamQueueMax)
	}
	w.Sim.RunFor(2 * time.Minute)

	if accepted != wcl.StreamQueueMax {
		t.Fatalf("accepted %d streams completed, want %d", accepted, wcl.StreamQueueMax)
	}
	if delivered != wcl.StreamQueueMax {
		t.Fatalf("delivered %d messages, want %d", delivered, wcl.StreamQueueMax)
	}
	if st := s.WCL.Stats(); st.StreamsShed != uint64(shed) {
		t.Fatalf("StreamsShed = %d, want %d", st.StreamsShed, shed)
	}

	// Oversized payloads shed too, with their own error.
	var tooBig *wcl.Result
	huge := make([]byte, (1<<16)*1024+1) // maxStreamFrags × default frag size + 1
	s.WCL.SendStream(destFor(w, d, 3), huge, func(r wcl.Result) { tooBig = &r })
	if tooBig == nil || !errors.Is(tooBig.Err, wcl.ErrStreamTooLarge) {
		t.Fatalf("oversized stream result = %+v, want ErrStreamTooLarge", tooBig)
	}
}

// TestStreamBrokenPathFallsBack: killing every relay holding circuit
// state mid-stream breaks the path; the in-flight message must still
// arrive — whole, exactly once — through the one-shot fallback.
func TestStreamBrokenPathFallsBack(t *testing.T) {
	w := buildCircuitWorld(t, 64, 120, wcl.Config{})
	natted := w.LiveNatted()
	s, d := natted[6], natted[7]

	var got [][]byte
	d.WCL.OnReceive = func(p []byte) { got = append(got, append([]byte(nil), p...)) }

	// Establish first so the relays hold state to kill.
	var est *wcl.Result
	s.WCL.SendCircuit(destFor(w, d, 3), []byte("warm"), func(r wcl.Result) { est = &r })
	w.Sim.RunFor(20 * time.Second)
	if est == nil || est.Outcome == wcl.Failed || !s.WCL.HasCircuit(d.ID()) {
		t.Fatalf("circuit not established: %+v", est)
	}
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
		t.Fatal("no relay held circuit state")
	}

	payload := streamPayload(400, 8<<10)
	var res *wcl.Result
	done := 0
	s.WCL.SendStream(destFor(w, d, 3), payload, func(r wcl.Result) { done++; res = &r })
	w.Sim.RunFor(3 * time.Minute)

	if done != 1 {
		t.Fatalf("done fired %d times, want exactly 1", done)
	}
	if res.Outcome == wcl.Failed {
		t.Fatalf("stream over broken path failed outright: %+v", res)
	}
	found := 0
	for _, g := range got {
		if bytes.Equal(g, payload) {
			found++
		}
	}
	if found != 1 {
		t.Fatalf("stream payload delivered %d times after fallback, want exactly 1", found)
	}
	if st := s.WCL.Stats(); st.StreamFallbacks != 1 {
		t.Fatalf("StreamFallbacks = %d, want 1", st.StreamFallbacks)
	}
}

// TestStreamsDisabledIsZeroBehavior pins the zero-behavior contract:
// plain one-shot and single-cell circuit traffic never put the stream
// ack tag (8) or a cellStream fragment on the wire, and every stream
// counter stays at zero on every node — the stream code is provably
// off-path until SendStream is called.
func TestStreamsDisabledIsZeroBehavior(t *testing.T) {
	w := buildCircuitWorld(t, 65, 120, wcl.Config{})
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
	s, d := natted[0], natted[1]
	ok := 0
	const sends = 8
	for i := 0; i < sends; i++ {
		payload := []byte(fmt.Sprintf("plain-%d", i))
		if i%2 == 0 {
			s.WCL.Send(destFor(w, d, 3), payload, func(r wcl.Result) {
				if r.Outcome != wcl.Failed {
					ok++
				}
			})
		} else {
			s.WCL.SendCircuit(destFor(w, d, 3), payload, func(r wcl.Result) {
				if r.Outcome != wcl.Failed {
					ok++
				}
			})
		}
		w.Sim.RunFor(2 * time.Second)
	}
	w.Sim.RunFor(time.Minute)
	if ok < sends-1 {
		t.Fatalf("only %d/%d sends succeeded", ok, sends)
	}

	if tagsSeen[5] == 0 {
		t.Fatalf("tap missed circuit data cells (parse drift?): %v", tagsSeen)
	}
	if tagsSeen[8] != 0 {
		t.Fatalf("stream ack tag appeared %d times without any SendStream", tagsSeen[8])
	}
	for _, n := range w.Live() {
		st := n.WCL.Stats()
		if st.StreamsSent+st.StreamsDelivered+st.StreamFragsSent+st.StreamFragsRecv+
			st.StreamRetransmits+st.DupStreamFrags+st.StreamsShed+st.StreamFallbacks != 0 {
			t.Fatalf("node %d has non-zero stream counters without SendStream: %+v", n.ID(), st)
		}
		if st.StreamWindow != 0 {
			t.Fatalf("node %d has window gauge %d without SendStream", n.ID(), st.StreamWindow)
		}
	}
}

// TestDeliveredMessagesStayIntact: an application may keep what
// OnReceive hands it. Stream messages and single cells interleave down
// one circuit under duplication and reordering, the receiver retains
// every delivered slice without copying, and only after all traffic —
// later cells, retransmits, acks through the same nodes — has passed
// does it compare them. A delivered message that aliased a buffer the
// stack reuses or writes again would have changed by then.
func TestDeliveredMessagesStayIntact(t *testing.T) {
	w := buildCircuitWorld(t, 66, 120, wcl.Config{})
	w.Net.SetFaults(&netem.FaultModel{DupProb: 0.2, ReorderProb: 0.2, ReorderJitter: 40 * time.Millisecond})
	natted := w.LiveNatted()
	s, d := natted[0], natted[1]

	var kept [][]byte
	d.WCL.OnReceive = func(p []byte) { kept = append(kept, p) }

	var want [][]byte
	for i := 0; i < 12; i++ {
		size := 200 + 37*i
		if i%3 == 0 {
			size = 20<<10 + 999*i // a stream message
		}
		want = append(want, streamPayload(int64(100+i), size))
	}
	done := 0
	for i, p := range want {
		sent := append([]byte(nil), p...) // the sender may reuse its buffer after done
		cb := func(r wcl.Result) {
			if r.Outcome != wcl.Failed {
				done++
			}
			for j := range sent {
				sent[j] = 0xEE
			}
		}
		if i%3 == 0 {
			s.WCL.SendStream(destFor(w, d, 3), sent, cb)
		} else {
			s.WCL.SendCircuit(destFor(w, d, 3), sent, cb)
		}
		w.Sim.RunFor(3 * time.Second)
	}
	w.Sim.RunFor(2 * time.Minute)

	if done != len(want) {
		t.Fatalf("%d of %d sends completed", done, len(want))
	}
	if len(kept) != len(want) {
		t.Fatalf("delivered %d messages, want %d exactly once each", len(kept), len(want))
	}
	for _, got := range kept {
		found := false
		for _, p := range want {
			if bytes.Equal(got, p) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("a retained %d-byte message no longer matches anything sent: delivered data aliases a buffer that was written again", len(got))
		}
	}
}
