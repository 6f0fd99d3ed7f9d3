package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricPoint is one exported instrument value, the unit of the JSON
// dump (-metrics-out) and of the expvar view.
type MetricPoint struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   string            `json:"kind"`
	// Value is the counter/gauge value (absent for histograms).
	Value *float64 `json:"value,omitempty"`
	// Histogram payload.
	Count   uint64    `json:"count,omitempty"`
	Sum     float64   `json:"sum,omitempty"`
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []uint64  `json:"buckets,omitempty"`
	// Quantile upper-bound estimates (see HistogramSnapshot.Quantile),
	// populated on rolled-up histograms so a /metrics/rollup reader gets
	// network-wide latency percentiles without re-deriving them from the
	// buckets. Omitted when not finite: an empty histogram has no
	// quantiles and a tail past the last finite bound estimates to +Inf,
	// neither of which JSON can carry.
	P50 *float64 `json:"p50,omitempty"`
	P95 *float64 `json:"p95,omitempty"`
	P99 *float64 `json:"p99,omitempty"`
}

// setQuantiles fills the point's quantile fields from a snapshot,
// skipping non-finite estimates.
func (p *MetricPoint) setQuantiles(s HistogramSnapshot) {
	for _, t := range []struct {
		q   float64
		dst **float64
	}{{0.50, &p.P50}, {0.95, &p.P95}, {0.99, &p.P99}} {
		if v := s.Quantile(t.q); !math.IsNaN(v) && !math.IsInf(v, 0) {
			v := v
			*t.dst = &v
		}
	}
}

// Export snapshots every registered instrument, sorted by name then
// labels. Safe to call concurrently with updates.
func (r *Registry) Export() []MetricPoint {
	if r == nil {
		return nil
	}
	var out []MetricPoint
	for _, m := range r.sorted() {
		p := MetricPoint{Name: m.name, Kind: m.kind.String()}
		if len(m.labels) > 0 {
			p.Labels = make(map[string]string, len(m.labels))
			for _, l := range m.labels {
				p.Labels[l.Key] = l.Value
			}
		}
		if m.kind == kindHistogram {
			s := m.h.Snapshot()
			p.Count, p.Sum, p.Bounds, p.Buckets = s.Count, s.Sum, s.Bounds, s.Counts
		} else {
			v := m.value()
			p.Value = &v
		}
		out = append(out, p)
	}
	return out
}

// Rollup aggregates same-named instruments across scopes into one
// point per remaining label set, with the given label keys dropped —
// typically Rollup("node") to collapse the per-node dimension into a
// network-wide view. Counters, gauges and gauge funcs sum; histograms
// merge bucket-wise (same-named histograms must share a bucket layout,
// which registration fixes per instrument). Output order follows the
// export order of the first instrument of each group, so it is stable
// across calls.
func (r *Registry) Rollup(drop ...string) []MetricPoint {
	if r == nil {
		return nil
	}
	dropped := make(map[string]bool, len(drop))
	for _, k := range drop {
		dropped[k] = true
	}
	type group struct {
		name   string
		labels []Label
		kind   metricKind
		value  float64
		hist   HistogramSnapshot
	}
	byKey := map[string]*group{}
	var order []string
	for _, m := range r.sorted() {
		var labels []Label
		for _, l := range m.labels {
			if !dropped[l.Key] {
				labels = append(labels, l)
			}
		}
		key := metricKey(m.name, labels)
		g, ok := byKey[key]
		if !ok {
			g = &group{name: m.name, labels: labels, kind: m.kind}
			byKey[key] = g
			order = append(order, key)
		}
		if (g.kind == kindHistogram) != (m.kind == kindHistogram) {
			panic(fmt.Sprintf("obs: rollup of %s mixes histogram and scalar instruments", m.name))
		}
		if m.kind == kindHistogram {
			g.hist = g.hist.Merge(m.h.Snapshot())
		} else {
			g.value += m.value()
		}
	}
	out := make([]MetricPoint, 0, len(order))
	for _, key := range order {
		g := byKey[key]
		p := MetricPoint{Name: g.name, Kind: g.kind.String()}
		if len(g.labels) > 0 {
			p.Labels = make(map[string]string, len(g.labels))
			for _, l := range g.labels {
				p.Labels[l.Key] = l.Value
			}
		}
		if g.kind == kindHistogram {
			p.Count, p.Sum, p.Bounds, p.Buckets = g.hist.Count, g.hist.Sum, g.hist.Bounds, g.hist.Counts
			p.setQuantiles(g.hist)
		} else {
			v := g.value
			p.Value = &v
		}
		out = append(out, p)
	}
	return out
}

// WriteRollupJSON writes the rollup (see Rollup) as an indented
// whisper-metrics-rollup/v1 JSON document to path.
func (r *Registry) WriteRollupJSON(path string, drop ...string) error {
	var buf strings.Builder
	if err := r.WriteRollupJSONTo(&buf, drop...); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(buf.String()), 0o644)
}

// WriteRollupJSONTo writes the same whisper-metrics-rollup/v1 document
// to a stream. The dropped label keys are recorded in the document so
// a reader knows which dimensions were collapsed.
func (r *Registry) WriteRollupJSONTo(w io.Writer, drop ...string) error {
	doc := struct {
		Schema  string        `json:"schema"`
		Dropped []string      `json:"dropped,omitempty"`
		Metrics []MetricPoint `json:"metrics"`
	}{Schema: "whisper-metrics-rollup/v1", Dropped: drop, Metrics: r.Rollup(drop...)}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// WriteJSON writes the registry as an indented whisper-metrics/v1 JSON
// document to path (the -metrics-out format of whisper-sim and
// whisper-exp, a sibling of the whisper-bench/v1 timing blob).
func (r *Registry) WriteJSON(path string) error {
	var buf strings.Builder
	if err := r.WriteJSONTo(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(buf.String()), 0o644)
}

// WriteJSONTo writes the same whisper-metrics/v1 document to a stream.
func (r *Registry) WriteJSONTo(w io.Writer) error {
	doc := struct {
		Schema  string        `json:"schema"`
		Metrics []MetricPoint `json:"metrics"`
	}{Schema: "whisper-metrics/v1", Metrics: r.Export()}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (hand-rolled on purpose: no new dependencies).
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	lastType := ""
	for _, m := range r.sorted() {
		if m.name != lastType {
			fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.kind)
			lastType = m.name
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(w, "%s%s %d\n", m.name, promLabels(m.labels, "", ""), m.sum())
		case kindGauge:
			fmt.Fprintf(w, "%s%s %d\n", m.name, promLabels(m.labels, "", ""), int64(m.sum()))
		case kindGaugeFunc:
			fmt.Fprintf(w, "%s%s %s\n", m.name, promLabels(m.labels, "", ""), promFloat(m.fval()))
		case kindHistogram:
			s := m.h.Snapshot()
			var cum uint64
			for i, b := range s.Bounds {
				cum += s.Counts[i]
				fmt.Fprintf(w, "%s_bucket%s %d\n", m.name, promLabels(m.labels, "le", promFloat(b)), cum)
			}
			cum += s.Counts[len(s.Counts)-1]
			fmt.Fprintf(w, "%s_bucket%s %d\n", m.name, promLabels(m.labels, "le", "+Inf"), cum)
			fmt.Fprintf(w, "%s_sum%s %s\n", m.name, promLabels(m.labels, "", ""), promFloat(s.Sum))
			fmt.Fprintf(w, "%s_count%s %d\n", m.name, promLabels(m.labels, "", ""), s.Count)
		}
	}
}

// promLabels renders a label set (plus an optional extra pair) in
// exposition syntax, or "" when empty.
func promLabels(labels []Label, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", l.Key, l.Value)
	}
	if extraKey != "" {
		if len(labels) > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", extraKey, extraVal)
	}
	sb.WriteByte('}')
	return sb.String()
}

func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return fmt.Sprintf("%g", v)
	}
}

// expvarReg is the registry the "whisper_metrics" expvar reflects.
// Publishing is process-global (expvar has one namespace), so the last
// Handler call wins — in practice a process exposes one registry.
var (
	expvarReg  atomic.Pointer[Registry]
	expvarOnce sync.Once
)

// Handler returns the observability endpoint whisper-node serves on
// -obs-addr: /metrics (Prometheus text), /metrics/rollup (JSON rollup
// across scopes; ?drop=<label> selects the collapsed dimensions,
// default node), /debug/vars (expvar, with the registry published as
// whisper_metrics), and the net/http/pprof suite under /debug/pprof/. The handler uses its own mux — nothing is
// registered on http.DefaultServeMux.
func Handler(r *Registry) http.Handler {
	expvarReg.Store(r)
	expvarOnce.Do(func() {
		expvar.Publish("whisper_metrics", expvar.Func(func() any {
			return expvarReg.Load().Export()
		}))
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics/rollup", func(w http.ResponseWriter, req *http.Request) {
		drop := req.URL.Query()["drop"]
		if len(drop) == 0 {
			drop = []string{"node"}
		}
		w.Header().Set("Content-Type", "application/json")
		r.WriteRollupJSONTo(w, drop...)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
