package obs

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRollupMergesAcrossNodes: same-named instruments registered under
// different node scopes collapse into one point each when the node
// dimension is dropped — counters and gauges sum, histograms merge
// bucket-wise, and labels other than the dropped ones survive.
func TestRollupMergesAcrossNodes(t *testing.T) {
	reg := NewRegistry()
	seed := reg.Scope("seed", "7")
	for i, add := range []int64{2, 3, 5} {
		sc := seed.With("node", string(rune('a'+i)))
		Register(sc, &struct {
			Sends uint64 `obs:"wcl_sends_total"`
			Open  int64  `obs:"wcl_circuits_open,gauge"`
		}{uint64(add), add})
		sc.Histogram("wcl_peel_ms", 1, 10).Observe(float64(add))
		v := float64(add)
		sc.GaugeFunc("wcl_cpu_ms", func() float64 { return v })
	}

	points := reg.Rollup("node")
	if len(points) != 4 {
		t.Fatalf("rollup has %d points, want 4: %+v", len(points), points)
	}
	byName := map[string]MetricPoint{}
	for _, p := range points {
		byName[p.Name] = p
	}
	for _, name := range []string{"wcl_sends_total", "wcl_circuits_open", "wcl_cpu_ms"} {
		p := byName[name]
		if p.Value == nil || *p.Value != 10 {
			t.Fatalf("%s rolled up to %+v, want value 10", name, p)
		}
		if p.Labels["seed"] != "7" || p.Labels["node"] != "" {
			t.Fatalf("%s labels = %v, want seed kept and node dropped", name, p.Labels)
		}
	}
	h := byName["wcl_peel_ms"]
	if h.Count != 3 || h.Sum != 10 {
		t.Fatalf("histogram rollup count=%d sum=%g, want 3 and 10", h.Count, h.Sum)
	}
	// Observations 2 and 3 land in the le=10 bucket, 5 too: bounds are
	// (1, 10, +Inf) so buckets must be [0, 3, 0].
	if len(h.Buckets) != 3 || h.Buckets[0] != 0 || h.Buckets[1] != 3 || h.Buckets[2] != 0 {
		t.Fatalf("histogram rollup buckets = %v", h.Buckets)
	}
	// All three observations sit in the le=10 bucket, so every quantile
	// estimate is that bucket's upper bound.
	for q, v := range map[string]*float64{"p50": h.P50, "p95": h.P95, "p99": h.P99} {
		if v == nil || *v != 10 {
			t.Fatalf("merged histogram %s = %v, want 10", q, v)
		}
	}

	// Dropping nothing is the identity grouping: every per-node series
	// stays separate.
	if got := len(reg.Rollup()); got != 12 {
		t.Fatalf("no-drop rollup has %d points, want 12", got)
	}
	// Dropping every dimension gives the global network view.
	all := reg.Rollup("node", "seed")
	for _, p := range all {
		if len(p.Labels) != 0 {
			t.Fatalf("full rollup kept labels: %+v", p)
		}
	}
	if (*Registry)(nil).Rollup("node") != nil {
		t.Fatal("nil registry must roll up to nil")
	}
}

// TestRollupQuantilesFiniteOnly: non-finite quantile estimates never
// reach the JSON document — an empty histogram has none, and a
// distribution with its tail past the last finite bound omits the
// quantiles that estimate to +Inf. The finite ones still serialize.
func TestRollupQuantilesFiniteOnly(t *testing.T) {
	reg := NewRegistry()
	reg.Scope("node", "1").Histogram("empty_ms", 1, 10)
	tail := reg.Scope("node", "1").Histogram("tail_ms", 1, 10)
	for i := 0; i < 94; i++ {
		tail.Observe(2) // 94% within le=10 ...
	}
	for i := 0; i < 6; i++ {
		tail.Observe(99) // ... 6% past the last finite bound
	}

	var buf strings.Builder
	if err := reg.WriteRollupJSONTo(&buf, "node"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []MetricPoint `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatal(err)
	}
	byName := map[string]MetricPoint{}
	for _, p := range doc.Metrics {
		byName[p.Name] = p
	}
	if e := byName["empty_ms"]; e.P50 != nil || e.P95 != nil || e.P99 != nil {
		t.Fatalf("empty histogram grew quantiles: %+v", e)
	}
	tl := byName["tail_ms"]
	if tl.P50 == nil || *tl.P50 != 10 {
		t.Fatalf("tail histogram p50 = %v, want 10", tl.P50)
	}
	if tl.P95 != nil || tl.P99 != nil {
		t.Fatalf("quantiles past the last bound must be omitted: p95=%v p99=%v", tl.P95, tl.P99)
	}
}

// TestRollupOrderStable: rollup output order is deterministic (export
// order of the first member of each group).
func TestRollupOrderStable(t *testing.T) {
	reg := NewRegistry()
	for _, node := range []string{"2", "1", "3"} {
		sc := reg.Scope("node", node)
		Register(sc, &struct {
			B uint64 `obs:"b_total"`
			A uint64 `obs:"a_total"`
		}{1, 1})
	}
	first := reg.Rollup("node")
	for i := 0; i < 10; i++ {
		again := reg.Rollup("node")
		for j := range first {
			if again[j].Name != first[j].Name {
				t.Fatalf("rollup order unstable: %v vs %v", again, first)
			}
		}
	}
	if first[0].Name != "a_total" || first[1].Name != "b_total" {
		t.Fatalf("rollup not in export order: %+v", first)
	}
}

// TestWriteRollupJSON: the rollup document carries its own schema tag
// and records which dimensions were collapsed.
func TestWriteRollupJSON(t *testing.T) {
	reg := NewRegistry()
	Register(reg.Scope("node", "1"), &sendStats{Sends: 4})
	Register(reg.Scope("node", "2"), &sendStats{Sends: 6})

	var buf strings.Builder
	if err := reg.WriteRollupJSONTo(&buf, "node"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema  string        `json:"schema"`
		Dropped []string      `json:"dropped"`
		Metrics []MetricPoint `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "whisper-metrics-rollup/v1" {
		t.Fatalf("schema = %q", doc.Schema)
	}
	if len(doc.Dropped) != 1 || doc.Dropped[0] != "node" {
		t.Fatalf("dropped = %v", doc.Dropped)
	}
	if len(doc.Metrics) != 1 || doc.Metrics[0].Value == nil || *doc.Metrics[0].Value != 10 {
		t.Fatalf("metrics = %+v", doc.Metrics)
	}
}

// TestHandlerRollupEndpoint: /metrics/rollup serves the rollup JSON,
// collapsing the node dimension by default and honoring ?drop=.
func TestHandlerRollupEndpoint(t *testing.T) {
	reg := NewRegistry()
	Register(reg.Scope("node", "1"), &sendStats{Sends: 4})
	Register(reg.Scope("node", "2"), &sendStats{Sends: 6})
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics/rollup")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("status %d content-type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var doc struct {
		Schema  string        `json:"schema"`
		Metrics []MetricPoint `json:"metrics"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "whisper-metrics-rollup/v1" || len(doc.Metrics) != 1 || *doc.Metrics[0].Value != 10 {
		t.Fatalf("rollup endpoint wrong: %s", body)
	}

	// ?drop=none-such keeps per-node series separate.
	resp2, err := srv.Client().Get(srv.URL + "/metrics/rollup?drop=nothing")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body2, _ := io.ReadAll(resp2.Body)
	if err := json.Unmarshal(body2, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Metrics) != 2 {
		t.Fatalf("?drop=nothing rolled up anyway: %s", body2)
	}
}

// captureCollector is a plain collector recording kinds in order.
type captureCollector struct{ events []Event }

func (c *captureCollector) Record(_ uint64, ev Event) { c.events = append(c.events, ev) }

// TestHeadSamplingDropsAtSourceOnly: the coin is flipped once per
// correlation key and only source-side kinds (send, retry, cell send)
// are ever dropped; relay-side kinds always emit. No field is added to
// Event (the wcl allowlist test pins that) and the sequence of span IDs
// stays gapless — a relay reading spans cannot tell sampling happened.
func TestHeadSamplingDropsAtSourceOnly(t *testing.T) {
	sink := &captureCollector{}
	tr := NewTracer(1, sink)
	flips := 0
	// Deterministic coin: path 1 loses (0.9 ≥ rate), path 2 wins (0.1 < rate).
	coin := func() float64 {
		flips++
		if flips%2 == 1 {
			return 0.9
		}
		return 0.1
	}
	tr.SetHeadSampling(0.5, coin)

	// Path 100: sampled out. All source kinds drop, every relay kind emits.
	for _, k := range []Kind{KindSend, KindRetry, KindCellSend} {
		if span := tr.Emit(k, 0, 0, 10, 100); span != 0 {
			t.Fatalf("sampled-out %v got span %d, want 0", k, span)
		}
	}
	relayKinds := []Kind{KindForward, KindPeel, KindDeliver, KindAck, KindCellForward, KindCellDeliver}
	for _, k := range relayKinds {
		if span := tr.Emit(k, 0, 0, 10, 100); span == 0 {
			t.Fatalf("relay kind %v dropped by head sampling", k)
		}
	}
	// Path 200: kept. One coin flip covers all its source events.
	for _, k := range []Kind{KindSend, KindCellSend, KindCellSend, KindRetry} {
		if span := tr.Emit(k, 0, 0, 10, 200); span == 0 {
			t.Fatalf("kept-path %v dropped", k)
		}
	}
	if flips != 2 {
		t.Fatalf("coin flipped %d times, want once per path (2)", flips)
	}
	// Re-emitting on path 100 reuses the cached decision: still dropped,
	// no third flip.
	if tr.Emit(KindSend, 0, 0, 10, 100) != 0 || flips != 2 {
		t.Fatal("sampling decision not cached per path")
	}

	// Emitted spans are a gapless node-local sequence: a relay cannot
	// infer sampling from span numbering.
	for i, ev := range sink.events {
		if ev.Span != SpanID(i+1) {
			t.Fatalf("span sequence has gaps: event %d has span %d", i, ev.Span)
		}
	}
}

// TestHeadSamplingDisabledKeepsEverything: rate ≥ 1, a nil coin, or
// never calling SetHeadSampling all emit every event.
func TestHeadSamplingDisabledKeepsEverything(t *testing.T) {
	for _, setup := range []func(*Tracer){
		func(*Tracer) {},
		func(tr *Tracer) { tr.SetHeadSampling(1, func() float64 { return 0.999 }) },
		func(tr *Tracer) { tr.SetHeadSampling(0, nil) },
	} {
		sink := &captureCollector{}
		tr := NewTracer(1, sink)
		setup(tr)
		for i := 0; i < 10; i++ {
			if tr.Emit(KindSend, 0, 0, 1, uint64(i)) == 0 {
				t.Fatal("event dropped with sampling disabled")
			}
		}
		if len(sink.events) != 10 {
			t.Fatalf("recorded %d events, want 10", len(sink.events))
		}
	}
	// Nil tracer stays inert.
	(*Tracer)(nil).SetHeadSampling(0.5, func() float64 { return 0 })
}
