package wcl_test

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"whisper/internal/obs"
	"whisper/internal/wcl"
)

// TestEventFieldAllowlist pins the exact field set of obs.Event. The
// relay-visibility rule says a trace event may carry only what a node
// can locally observe; any new field widens every relay's telemetry
// and must argue its privacy case by editing this allowlist. In
// particular, head-based trace sampling (obs.Tracer.SetHeadSampling)
// must stay a source-local memory: no "sampled" bit may appear here —
// or on the wire — because a per-path flag relays could read is a
// per-path correlator.
func TestEventFieldAllowlist(t *testing.T) {
	allow := map[string]string{
		"Span":  "obs.SpanID",    // node-local, restarts per node
		"Kind":  "obs.Kind",      // event class
		"At":    "time.Duration", // local clock
		"Dur":   "time.Duration", // local processing cost
		"Bytes": "int",           // local message size
	}
	typ := reflect.TypeOf(obs.Event{})
	if typ.NumField() != len(allow) {
		t.Fatalf("obs.Event has %d fields, allowlist has %d — a new field reached relay telemetry",
			typ.NumField(), len(allow))
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		want, ok := allow[f.Name]
		if !ok {
			t.Fatalf("obs.Event.%s is not in the relay-visibility allowlist", f.Name)
		}
		if got := f.Type.String(); got != want {
			t.Fatalf("obs.Event.%s is %s, allowlist says %s", f.Name, got, want)
		}
	}
}

// relaySink is what a real deployment may attach to a node: a plain
// obs.Collector. It deliberately does NOT implement RecordCorrelated,
// so the tracer (by type assertion) can never hand it a path ID.
type relaySink struct {
	events map[uint64][]obs.Event // node -> its events
}

func (r *relaySink) Record(node uint64, ev obs.Event) {
	r.events[node] = append(r.events[node], ev)
}

// TestRelayTraceUnlinkable drives confidential traffic through a
// converged network with every node's tracer attached to one shared
// plain collector — an adversary that has compromised the telemetry of
// every relay at once — and verifies the recorded fields cannot link a
// route's source to its destination. The second half attaches the
// sim-only CorrelatingCollector as a positive control: with the
// correlation key the same traffic IS fully linkable, proving the
// privacy property lives in the event schema, not in weak traffic.
func TestRelayTraceUnlinkable(t *testing.T) {
	w := buildWCLWorld(t, 29, 120)
	natted := w.LiveNatted()

	sink := &relaySink{events: map[uint64][]obs.Event{}}
	for _, n := range w.Live() {
		n.WCL.Trace = obs.NewTracer(uint64(n.Nylon.ID()), sink)
	}

	const sends = 12
	done := 0
	for i := 0; i < sends; i++ {
		s := natted[i%len(natted)]
		d := natted[(i+11)%len(natted)]
		if s == d {
			continue
		}
		dest := destFor(w, d, 3)
		s.WCL.Send(dest, []byte("confidential"), func(r wcl.Result) {
			if r.Outcome != wcl.Failed {
				done++
			}
		})
	}
	w.Sim.RunFor(time.Minute)
	if done < sends/2 {
		t.Fatalf("only %d/%d sends succeeded; traffic too thin to test linkability", done, sends)
	}

	// The adversary did observe the traffic: forwards and peels were
	// recorded on nodes other than the sources.
	kinds := map[obs.Kind]int{}
	for _, evs := range sink.events {
		for _, ev := range evs {
			kinds[ev.Kind]++
		}
	}
	if kinds[obs.KindForward] == 0 || kinds[obs.KindPeel] == 0 || kinds[obs.KindDeliver] == 0 {
		t.Fatalf("trace did not capture relay activity: %v", kinds)
	}

	// Span IDs are node-local monotonic counters: every active node
	// emits span 1, 2, 3... — so the same span values recur across
	// nodes and cannot act as a global correlator. Require the
	// collision to actually occur, and numbering to restart at 1.
	spanOwners := map[obs.SpanID]int{}
	for node, evs := range sink.events {
		minSpan := obs.SpanID(1 << 62)
		seen := map[obs.SpanID]bool{}
		for _, ev := range evs {
			if ev.Span < minSpan {
				minSpan = ev.Span
			}
			seen[ev.Span] = true
		}
		if minSpan != 1 {
			t.Fatalf("node %d's spans start at %d, want 1 (numbering must restart per node)", node, minSpan)
		}
		for sp := range seen {
			spanOwners[sp]++
		}
	}
	collisions := 0
	for _, owners := range spanOwners {
		if owners >= 2 {
			collisions++
		}
	}
	if collisions == 0 {
		t.Fatal("no span value recurs across nodes — spans look globally unique, which would link hops")
	}

	// Positive control: the omniscient CorrelatingCollector sees the
	// same schema plus the correlation key, and full paths fall out.
	cc := &obs.CorrelatingCollector{}
	for _, n := range w.Live() {
		n.WCL.Trace = obs.NewTracer(uint64(n.Nylon.ID()), cc)
	}
	s, d := natted[3], natted[17]
	var res *wcl.Result
	s.WCL.Send(destFor(w, d, 3), []byte("controlled"), func(r wcl.Result) { res = &r })
	w.Sim.RunFor(30 * time.Second)
	if res == nil || res.Outcome == wcl.Failed {
		t.Fatalf("control send failed: %+v", res)
	}
	paths := cc.Paths()
	if len(paths) == 0 {
		t.Fatal("correlating collector saw no paths")
	}
	// The delivered path's timeline crosses several nodes: source send,
	// relay peels/forwards, destination deliver — the exact linkage the
	// plain collector must never enable.
	linked := false
	for _, p := range paths {
		tl := cc.Timeline(p)
		nodes := map[uint64]bool{}
		hasSend, hasDeliver := false, false
		for _, ev := range tl {
			nodes[ev.Node] = true
			hasSend = hasSend || ev.Kind == obs.KindSend
			hasDeliver = hasDeliver || ev.Kind == obs.KindDeliver
		}
		if hasSend && hasDeliver && len(nodes) >= 3 {
			linked = true
			// The timeline is ordered: the send cannot come after the
			// delivery.
			at := make([]time.Duration, 0, len(tl))
			for _, ev := range tl {
				at = append(at, ev.At)
			}
			if !sort.SliceIsSorted(at, func(i, j int) bool { return at[i] < at[j] }) {
				t.Fatal("timeline not time-ordered")
			}
			if cc.FormatTimeline(p) == "" {
				t.Fatal("empty timeline rendering")
			}
		}
	}
	if !linked {
		t.Fatal("omniscient observer failed to reconstruct any full path — positive control broken")
	}
}

// TestCircuitRelayTraceUnlinkable extends the relay-trace property
// across a full circuit lifetime: setup, a stream of data cells,
// rotation, teardown. A plain collector compromised on every relay of
// an established circuit sees forwards, peels and cell forwards — but
// nothing in the recorded schema links the circuit's source to its
// destination, because circuit IDs never reach a plain Collector and
// span numbering restarts on every node. The positive control shows
// the sim-only correlating collector CAN reconstruct the whole circuit
// lifetime from the same traffic, so the protection is the schema.
func TestCircuitRelayTraceUnlinkable(t *testing.T) {
	w := buildCircuitWorld(t, 51, 120, wcl.Config{})
	natted := w.LiveNatted()
	s, d := natted[0], natted[1]

	sink := &relaySink{events: map[uint64][]obs.Event{}}
	for _, n := range w.Live() {
		n.WCL.Trace = obs.NewTracer(uint64(n.Nylon.ID()), sink)
	}

	// A full lifetime: enough cells to cross the rotation budget.
	const sends = wcl.CircuitMaxCells + 100
	ok := 0
	for i := 0; i < sends; i++ {
		s.WCL.SendCircuit(destFor(w, d, 3), []byte("circuit-confidential"), func(r wcl.Result) {
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
		t.Fatalf("only %d/%d circuit sends succeeded", ok, sends)
	}
	if s.WCL.Stats().CircuitsRotated == 0 {
		t.Fatal("lifetime did not cross a rotation — test covers less than intended")
	}

	// The adversary observed the circuit machinery at work...
	kinds := map[obs.Kind]int{}
	for _, evs := range sink.events {
		for _, ev := range evs {
			kinds[ev.Kind]++
		}
	}
	if kinds[obs.KindCellForward] == 0 || kinds[obs.KindCellDeliver] == 0 || kinds[obs.KindPeel] == 0 {
		t.Fatalf("trace did not capture circuit relay activity: %v", kinds)
	}

	// ...but no recorded value is a cross-node correlator: spans restart
	// at 1 on every node and recur across nodes, exactly like the
	// one-shot case, over the whole lifetime of the circuit.
	spanOwners := map[obs.SpanID]int{}
	for node, evs := range sink.events {
		minSpan := obs.SpanID(1 << 62)
		for _, ev := range evs {
			if ev.Span < minSpan {
				minSpan = ev.Span
			}
			if ev.Span > obs.SpanID(len(evs)) {
				t.Fatalf("node %d span %d exceeds its own event count — spans leak global state", node, ev.Span)
			}
		}
		if minSpan != 1 {
			t.Fatalf("node %d's spans start at %d, want 1", node, minSpan)
		}
		seen := map[obs.SpanID]bool{}
		for _, ev := range evs {
			seen[ev.Span] = true
		}
		for sp := range seen {
			spanOwners[sp]++
		}
	}
	collisions := 0
	for _, owners := range spanOwners {
		if owners >= 2 {
			collisions++
		}
	}
	if collisions == 0 {
		t.Fatal("no span value recurs across nodes during the circuit lifetime")
	}

	// Positive control: the omniscient observer links the whole circuit
	// lifetime — source cell sends, relay cell forwards, exit deliveries
	// — under one correlation key.
	cc := &obs.CorrelatingCollector{}
	for _, n := range w.Live() {
		n.WCL.Trace = obs.NewTracer(uint64(n.Nylon.ID()), cc)
	}
	s2, d2 := natted[3], natted[4]
	const controlSends = 6
	okCtl := 0
	for i := 0; i < controlSends; i++ {
		s2.WCL.SendCircuit(destFor(w, d2, 3), []byte("controlled"), func(r wcl.Result) {
			if r.Outcome != wcl.Failed {
				okCtl++
			}
		})
		w.Sim.RunFor(2 * time.Second)
	}
	w.Sim.RunFor(30 * time.Second)
	if okCtl < controlSends-1 {
		t.Fatalf("control sends failed: %d/%d", okCtl, controlSends)
	}
	linked := false
	for _, p := range cc.Paths() {
		tl := cc.Timeline(p)
		nodes := map[uint64]bool{}
		hasCellSend, hasCellDeliver, hasCellForward := false, false, false
		for _, ev := range tl {
			nodes[ev.Node] = true
			hasCellSend = hasCellSend || ev.Kind == obs.KindCellSend
			hasCellDeliver = hasCellDeliver || ev.Kind == obs.KindCellDeliver
			hasCellForward = hasCellForward || ev.Kind == obs.KindCellForward
		}
		if hasCellSend && hasCellForward && hasCellDeliver && len(nodes) >= 3 {
			linked = true
		}
	}
	if !linked {
		t.Fatal("omniscient observer failed to reconstruct a circuit lifetime — positive control broken")
	}
}
