package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// testStats stands in for a layer's Stats struct.
type testStats struct {
	Sends uint64 `obs:"wcl_sends_total"`
	Open  int64  `obs:"wcl_circuits_open,gauge"`
	Held  uint64 `obs:"tchord_stores_held,gauge"`
}

func TestScopeGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	var a, b, other testStats
	Register(reg.Scope("node", "1"), &a)
	Register(reg.Scope("node", "1"), &b)
	Register(reg.Scope("node", "2"), &other)
	Inc(&a.Sends)
	Add(&b.Sends, 2)
	Set(&a.Open, 7)
	Add(&b.Open, -2)
	Set(&other.Held, 4)
	if a.Sends != 1 || b.Sends != 2 || a.Open != 7 || b.Open != -2 {
		t.Fatalf("fields wrong: %+v %+v", a, b)
	}
	got := map[string]float64{}
	for _, p := range reg.Export() {
		got[p.Name+"/"+p.Labels["node"]] = *p.Value
	}
	want := map[string]float64{
		// Same name and labels: one instrument exporting the sum.
		"wcl_sends_total/1": 3, "wcl_circuits_open/1": 5, "tchord_stores_held/1": 0,
		// Different labels: a distinct instrument.
		"wcl_sends_total/2": 0, "wcl_circuits_open/2": 0, "tchord_stores_held/2": 4,
	}
	if len(got) != len(want) {
		t.Fatalf("exported %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s = %v, want %v (all: %v)", k, got[k], v, got)
		}
	}
}

// TestRegisterRejectsBadFields: every field of a registered struct must
// be a tagged counter or gauge word.
func TestRegisterRejectsBadFields(t *testing.T) {
	sc := NewRegistry().Scope()
	for name, st := range map[string]any{
		"untagged": &struct{ N uint64 }{},
		"bad kind": &struct {
			N int32 `obs:"n"`
		}{},
		"bad opt": &struct {
			N uint64 `obs:"n,hist"`
		}{},
		"no struct": new(uint64),
		"by value":  testStats{},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Register did not panic", name)
				}
			}()
			Register(sc, st)
		}()
	}
}

func TestNilScopeHandsOutWorkingInstruments(t *testing.T) {
	var sc *Scope
	if sc.With("node", "1") != nil {
		t.Fatal("nil scope With must stay nil")
	}
	var st testStats
	Register(sc, &st) // must not panic
	Inc(&st.Sends)
	if st.Sends != 1 {
		t.Fatal("unregistered field must count")
	}
	h := sc.Histogram("y_ms")
	h.Observe(3)
	if h.Count() != 1 {
		t.Fatal("standalone histogram must count")
	}
	sc.GaugeFunc("z", func() float64 { return 1 }) // must not panic
	var nilH *Histogram
	nilH.Observe(1)
	var reg *Registry
	if reg.Scope("a", "b") != nil {
		t.Fatal("nil registry scope must be nil")
	}
}

// TestCounterIncDoesNotAllocate locks the hot-path contract: metric
// updates are allocation-free, registered or not.
func TestCounterIncDoesNotAllocate(t *testing.T) {
	reg := NewRegistry()
	var st, standalone testStats
	Register(reg.Scope("node", "1"), &st)
	if n := testing.AllocsPerRun(1000, func() { Inc(&st.Sends) }); n != 0 {
		t.Fatalf("registered Inc allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { Add(&standalone.Sends, 3) }); n != 0 {
		t.Fatalf("unregistered Add allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { Add(&st.Open, 1); Set(&st.Held, 2) }); n != 0 {
		t.Fatalf("gauge Add/Set allocates %v/op, want 0", n)
	}
	h := reg.Scope("node", "1").Histogram("hot_ms")
	if n := testing.AllocsPerRun(1000, func() { h.Observe(3.7) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v/op, want 0", n)
	}
}

// TestRegistryConcurrent hammers registration, updates, and export from
// many goroutines; run under -race in CI.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for n := 0; n < 8; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			sc := reg.Scope("node", fmt.Sprint(n%4))
			st := new(testStats)
			Register(sc, st)
			for i := 0; i < 500; i++ {
				Inc(&st.Sends)
				Set(&st.Open, int64(i))
				sc.Histogram("conc_ms").Observe(float64(i % 50))
				sc.GaugeFunc("conc_fn", func() float64 { return 1 })
			}
		}(n)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			reg.Export()
			var sb strings.Builder
			reg.WritePrometheus(&sb)
		}
	}()
	wg.Wait()
	var total uint64
	for _, p := range reg.Export() {
		if p.Name == "wcl_sends_total" {
			total += uint64(*p.Value)
		}
	}
	if total != 8*500 {
		t.Fatalf("lost increments: %d, want %d", total, 8*500)
	}
}

func TestPrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	sc := reg.Scope("node", "1")
	st := testStats{Sends: 4, Open: -1, Held: 2}
	Register(sc, &st)
	sc.GaugeFunc("transport_up_bytes", func() float64 { return 1536 })
	h := sc.Histogram("wcl_peel_ms", 1, 10, 100)
	h.Observe(0.5)
	h.Observe(50)
	h.Observe(5000)

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE wcl_sends_total counter",
		`wcl_sends_total{node="1"} 4`,
		"# TYPE wcl_circuits_open gauge",
		`wcl_circuits_open{node="1"} -1`,
		`tchord_stores_held{node="1"} 2`,
		`transport_up_bytes{node="1"} 1536`,
		`wcl_peel_ms_bucket{node="1",le="1"} 1`,
		`wcl_peel_ms_bucket{node="1",le="100"} 2`,
		`wcl_peel_ms_bucket{node="1",le="+Inf"} 3`,
		`wcl_peel_ms_count{node="1"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestTracerSpansAreNodeLocal(t *testing.T) {
	col := &CorrelatingCollector{}
	t1 := NewTracer(1, col)
	t2 := NewTracer(2, col)
	t1.Emit(KindSend, 0, 0, 10, 77)
	t1.Emit(KindRetry, time.Second, 0, 10, 77)
	t2.Emit(KindPeel, 2*time.Second, time.Millisecond, 20, 77)
	evs := col.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].Span != 1 || evs[1].Span != 2 || evs[2].Span != 1 {
		t.Fatalf("span IDs must restart per node: %+v", evs)
	}
	tl := col.Timeline(77)
	if len(tl) != 3 || tl[0].Kind != KindSend || tl[2].Kind != KindPeel {
		t.Fatalf("timeline wrong: %+v", tl)
	}
	if s := col.FormatTimeline(77); !strings.Contains(s, "peel") {
		t.Fatalf("FormatTimeline: %s", s)
	}
	var nilT *Tracer
	if nilT.Emit(KindSend, 0, 0, 0, 1) != 0 {
		t.Fatal("nil tracer must drop events")
	}
}

// plainSink is a non-correlating collector: the only view a real node
// may have.
type plainSink struct {
	events []Event
	nodes  []uint64
}

func (p *plainSink) Record(node uint64, ev Event) {
	p.nodes = append(p.nodes, node)
	p.events = append(p.events, ev)
}

func TestPlainCollectorNeverSeesCorrelation(t *testing.T) {
	sink := &plainSink{}
	tr := NewTracer(9, sink)
	if tr.corr != nil {
		t.Fatal("plain collector must not be treated as a correlator")
	}
	tr.Emit(KindDeliver, time.Second, 0, 32, 0xdeadbeef)
	if len(sink.events) != 1 {
		t.Fatal("event lost")
	}
	// The correlation key is dropped at the Tracer; Event has no field
	// that could carry it (pinned by TestEventFieldAllowlist in the wcl
	// privacy test).
}
