package netem

import (
	"fmt"
	"testing"
	"time"

	"whisper/internal/simnet"
)

func faultNet(seed int64, fm *FaultModel) (*simnet.Sim, *Network) {
	s := simnet.New(seed)
	n := New(s, Fixed{D: time.Millisecond})
	n.SetFaults(fm)
	return s, n
}

func TestDuplicationRate(t *testing.T) {
	s, n := faultNet(3, &FaultModel{DupProb: 0.25})
	received := 0
	n.Attach(2, HandlerFunc(func(Datagram) { received++ }))
	const total = 4000
	for i := 0; i < total; i++ {
		n.Send(Datagram{Src: Endpoint{IP: 1, Port: 1}, Dst: Endpoint{IP: 2, Port: 1}, Payload: []byte("p")})
	}
	s.Run()
	extra := received - total
	if extra < total/4-150 || extra > total/4+150 {
		t.Fatalf("%d extra copies of %d sends at 25%% duplication, want ~%d", extra, total, total/4)
	}
	if got := n.FaultStats().Duplicated; got != uint64(extra) {
		t.Fatalf("Duplicated = %d, delivered extras = %d", got, extra)
	}
}

func TestDuplicateCopyOwnsItsPayload(t *testing.T) {
	s, n := faultNet(5, &FaultModel{DupProb: 1})
	var payloads [][]byte
	n.Attach(2, HandlerFunc(func(dg Datagram) { payloads = append(payloads, dg.Payload) }))
	n.Send(Datagram{Src: Endpoint{IP: 1, Port: 1}, Dst: Endpoint{IP: 2, Port: 1}, Payload: []byte("abc")})
	s.Run()
	if len(payloads) != 2 {
		t.Fatalf("got %d copies, want 2", len(payloads))
	}
	payloads[0][0] = 'X' // a receiver mutating one copy must not corrupt the other
	if string(payloads[1]) != "abc" {
		t.Fatal("duplicate shares the original payload slice")
	}
}

// TestDuplicateTravelsInItsOwnRecord: delivery records are recycled, and
// a record goes back on the free list before its handler runs — so the
// first copy's handler, sending from inside the delivery, reuses the
// record its own datagram just travelled in. The injected duplicate must
// be in a record (and payload) of its own by then, or that send would
// overwrite it in flight.
func TestDuplicateTravelsInItsOwnRecord(t *testing.T) {
	s, n := faultNet(5, &FaultModel{DupProb: 1})
	src, dst, other := Endpoint{IP: 1, Port: 1}, Endpoint{IP: 2, Port: 1}, Endpoint{IP: 3, Port: 1}
	var copies, echoes []Datagram
	n.Attach(dst.IP, HandlerFunc(func(dg Datagram) {
		if dg.Src != src || dg.Dst != dst || string(dg.Payload) != "abc" {
			t.Errorf("copy %d arrived as %v→%v %q: its record was reused in flight", len(copies), dg.Src, dg.Dst, dg.Payload)
		}
		copies = append(copies, dg)
		for i := range dg.Payload {
			dg.Payload[i] = 'X' // the handler owns its copy
		}
		n.SetFaults(nil) // the echo itself is not duplicated
		n.Send(Datagram{Src: dst, Dst: other, Payload: []byte("echo")})
		n.SetFaults(&FaultModel{DupProb: 1})
	}))
	n.Attach(other.IP, HandlerFunc(func(dg Datagram) { echoes = append(echoes, dg) }))
	n.Send(Datagram{Src: src, Dst: dst, Payload: []byte("abc")})
	if len(n.free) != 0 {
		t.Fatalf("%d free records with two copies in flight on a fresh network", len(n.free))
	}
	s.Run()
	if len(copies) != 2 || len(echoes) != 2 {
		t.Fatalf("got %d copies and %d echoes, want 2 and 2", len(copies), len(echoes))
	}
	if &copies[0].Payload[0] == &copies[1].Payload[0] {
		t.Error("the duplicate shares the original's payload")
	}
	for i, dg := range echoes {
		if dg.Src != dst || dg.Dst != other || string(dg.Payload) != "echo" {
			t.Errorf("echo %d arrived as %v→%v %q", i, dg.Src, dg.Dst, dg.Payload)
		}
	}
	// Two datagrams were in flight at once, never more: two records exist.
	if len(n.free) != 2 || n.free[0] == n.free[1] {
		t.Fatalf("free list holds %d records after the run, want 2 distinct ones", len(n.free))
	}
}

func TestReorderingInvertsDeliveryOrder(t *testing.T) {
	// With a reordering window far wider than the base latency and
	// consecutive sends, some later-sent datagrams must arrive before
	// earlier-sent ones.
	s, n := faultNet(7, &FaultModel{ReorderProb: 0.5, ReorderJitter: 200 * time.Millisecond})
	var order []int
	n.Attach(2, HandlerFunc(func(dg Datagram) { order = append(order, int(dg.Payload[0])) }))
	for i := 0; i < 200; i++ {
		n.Send(Datagram{Src: Endpoint{IP: 1, Port: 1}, Dst: Endpoint{IP: 2, Port: 1}, Payload: []byte{byte(i)}})
	}
	s.Run()
	if len(order) != 200 {
		t.Fatalf("delivered %d, want 200 (reordering must not lose datagrams)", len(order))
	}
	inversions := 0
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Fatal("no delivery-order inversion despite 50% reordering")
	}
	if n.FaultStats().Reordered == 0 {
		t.Fatal("Reordered counter never advanced")
	}
}

func TestGilbertElliottBursts(t *testing.T) {
	// p=0.02, r=0.2 → steady-state bad fraction p/(p+r) ≈ 9%, mean
	// burst length 1/r = 5. With LossBad=1 the observed loss should sit
	// near 9% and losses should clump into runs.
	s, n := faultNet(11, &FaultModel{Burst: &GilbertElliott{PGoodBad: 0.02, PBadGood: 0.2}})
	received := map[int]bool{}
	n.Attach(2, HandlerFunc(func(dg Datagram) {
		received[int(dg.Payload[0])<<8|int(dg.Payload[1])] = true
	}))
	const total = 8000
	for i := 0; i < total; i++ {
		n.Send(Datagram{Src: Endpoint{IP: 1, Port: 1}, Dst: Endpoint{IP: 2, Port: 1},
			Payload: []byte{byte(i >> 8), byte(i)}})
	}
	s.Run()
	lost := total - len(received)
	if lost < total*5/100 || lost > total*14/100 {
		t.Fatalf("lost %d/%d (%.1f%%), want near the 9%% steady state", lost, total, 100*float64(lost)/total)
	}
	// Burstiness: count maximal runs of consecutive losses; their mean
	// length must exceed what independent loss at the same rate gives
	// (mean run length 1/(1-p) ≈ 1.1).
	runs, runLen, inRun := 0, 0, false
	for i := 0; i < total; i++ {
		if !received[i] {
			runLen++
			if !inRun {
				runs++
				inRun = true
			}
		} else {
			inRun = false
		}
	}
	if mean := float64(runLen) / float64(runs); mean < 2 {
		t.Fatalf("mean loss-run length %.2f, want ≥ 2 (losses not bursty)", mean)
	}
	if n.FaultStats().BurstDropped != uint64(lost) {
		t.Fatalf("BurstDropped = %d, observed %d", n.FaultStats().BurstDropped, lost)
	}
}

// TestBurstMapHoldsOnlyBadLinks pins the burst map to the live set: with
// LossBad 1 and LossGood 0 a link is Bad exactly when its last datagram
// was dropped, so after traffic over many links the map must hold those
// links and no others — not every pair that ever carried a datagram.
func TestBurstMapHoldsOnlyBadLinks(t *testing.T) {
	s, n := faultNet(5, &FaultModel{Burst: &GilbertElliott{PGoodBad: 0.05, PBadGood: 0.3}})
	rng := s.Rand()
	lastDropped := map[[2]IP]bool{}
	for i := 0; i < 20000; i++ {
		src, dst := IP(1+rng.Intn(12)), IP(1+rng.Intn(12))
		lastDropped[[2]IP{src, dst}] = n.faultDrop(rng, src, dst)
	}
	bad := 0
	for link, dropped := range lastDropped {
		if dropped {
			bad++
			if !n.burst[link] {
				t.Fatalf("link %v is Bad (its last datagram dropped) but missing from the burst map", link)
			}
		}
	}
	if bad == 0 || bad == len(lastDropped) {
		t.Fatalf("%d of %d links Bad at the end; the check needs both states", bad, len(lastDropped))
	}
	if len(n.burst) != bad {
		t.Fatalf("burst map holds %d links, want exactly the %d Bad ones (of %d used)", len(n.burst), bad, len(lastDropped))
	}
}

func TestOneWayPartition(t *testing.T) {
	s, n := faultNet(13, &FaultModel{Partitions: []Partition{NewPartition([]IP{1}, []IP{2})}})
	got12, got21 := 0, 0
	n.Attach(1, HandlerFunc(func(Datagram) { got21++ }))
	n.Attach(2, HandlerFunc(func(Datagram) { got12++ }))
	for i := 0; i < 10; i++ {
		n.Send(Datagram{Src: Endpoint{IP: 1, Port: 1}, Dst: Endpoint{IP: 2, Port: 1}})
		n.Send(Datagram{Src: Endpoint{IP: 2, Port: 1}, Dst: Endpoint{IP: 1, Port: 1}})
	}
	s.Run()
	if got12 != 0 {
		t.Fatalf("%d datagrams crossed the cut direction", got12)
	}
	if got21 != 10 {
		t.Fatalf("reverse direction delivered %d/10 (partition must be one-way)", got21)
	}
	if n.FaultStats().Partitioned != 10 {
		t.Fatalf("Partitioned = %d, want 10", n.FaultStats().Partitioned)
	}
}

// TestNoFaultsIsZeroBehavior holds the determinism contract the fig5
// golden test depends on: a network with no fault model consumes the
// same random draws and delivers the same sequence, at the same times,
// as one where SetFaults was never called — and a zero-probability
// fault model changes delivery times of nothing either.
func TestNoFaultsIsZeroBehavior(t *testing.T) {
	type event struct {
		at  time.Duration
		tag byte
	}
	trace := func(install func(*Network)) []event {
		s := simnet.New(99)
		n := New(s, Cluster{})
		if install != nil {
			install(n)
		}
		var events []event
		n.Attach(2, HandlerFunc(func(dg Datagram) {
			events = append(events, event{at: s.Now(), tag: dg.Payload[0]})
		}))
		for i := 0; i < 500; i++ {
			n.Send(Datagram{Src: Endpoint{IP: 1, Port: 1}, Dst: Endpoint{IP: 2, Port: 1}, Payload: []byte{byte(i)}})
		}
		s.Run()
		return events
	}
	base := trace(nil)
	nilModel := trace(func(n *Network) { n.SetFaults(nil) })
	if fmt.Sprint(base) != fmt.Sprint(nilModel) {
		t.Fatal("SetFaults(nil) perturbed the event sequence")
	}
}

// TestFaultDeterminism: two runs at the same seed inject the exact same
// faults at the exact same times.
func TestFaultDeterminism(t *testing.T) {
	run := func() ([]int, FaultStats) {
		s, n := faultNet(17, &FaultModel{
			DupProb: 0.1, ReorderProb: 0.3, ReorderJitter: 50 * time.Millisecond,
			Burst: &GilbertElliott{PGoodBad: 0.05, PBadGood: 0.3, LossBad: 0.8},
		})
		var order []int
		n.Attach(2, HandlerFunc(func(dg Datagram) { order = append(order, int(dg.Payload[0])) }))
		for i := 0; i < 300; i++ {
			n.Send(Datagram{Src: Endpoint{IP: 1, Port: 1}, Dst: Endpoint{IP: 2, Port: 1}, Payload: []byte{byte(i)}})
		}
		s.Run()
		return order, n.FaultStats()
	}
	o1, s1 := run()
	o2, s2 := run()
	if fmt.Sprint(o1) != fmt.Sprint(o2) || s1 != s2 {
		t.Fatal("same seed produced different fault injections")
	}
}

// TestHandlerOwnsItsPayload is the receiving half of the
// transport.Datagram ownership contract on the emulator: a handler may
// overwrite the payload it is handed — the WCL opens cell layers in
// place — and with every datagram duplicated, the copy delivered later
// must still arrive as sent.
func TestHandlerOwnsItsPayload(t *testing.T) {
	s, n := faultNet(11, &FaultModel{DupProb: 1, ReorderProb: 0.5, ReorderJitter: 50 * time.Millisecond})
	delivered := 0
	n.Attach(2, HandlerFunc(func(dg Datagram) {
		want := fmt.Sprintf("payload-%03d", dg.Payload[len(dg.Payload)-1])
		if got := string(dg.Payload[:len(dg.Payload)-1]); got != want {
			t.Errorf("delivery %d: payload %q, want %q: a copy was corrupted by the handler of the other", delivered, got, want)
		}
		for i := range dg.Payload[:len(dg.Payload)-1] {
			dg.Payload[i] = 0xFF
		}
		delivered++
	}))
	const total = 100
	for i := 0; i < total; i++ {
		payload := append([]byte(fmt.Sprintf("payload-%03d", i)), byte(i))
		n.Send(Datagram{Src: Endpoint{IP: 1, Port: 1}, Dst: Endpoint{IP: 2, Port: 1}, Payload: payload})
	}
	s.Run()
	if delivered != 2*total {
		t.Fatalf("delivered %d, want %d", delivered, 2*total)
	}
}
