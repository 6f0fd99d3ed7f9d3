// Package obs is the observability layer of the WHISPER stack: a typed
// metrics registry (counters, gauges, histograms), hop-level tracing,
// and export plumbing (Prometheus text, JSON, expvar, pprof) shared by
// the emulated experiments and the real whisper-node daemon.
//
// Three rules shape the design:
//
//  1. Disabled is free and zero-behavior. Counters and gauges are the
//     fields of each layer's Stats struct (stats.go), so they count
//     whether or not they are registered. Every constructor is nil-safe:
//     a nil *Scope registers nothing and hands out standalone
//     histograms, and a nil *Tracer drops events. Nothing in
//     this package touches a transport, an RNG, or a clock, so attaching
//     or detaching observability can never shift a simulated event — the
//     fig5 golden test pins that property.
//
//  2. Hot paths do not allocate. Counter and gauge updates are single
//     atomic operations on a Stats field; histogram observation is an
//     atomic add into a pre-sized bucket slice. A regression test asserts 0 allocs/op.
//
//  3. Instrumentation only records what a node can locally observe.
//     Metrics are per-node (the Scope carries the node label); trace
//     events carry node-local span IDs, never end-to-end path IDs — see
//     trace.go for the relay-visibility rule and the simulator-only
//     CorrelatingCollector that is allowed to join spans across nodes.
//
// Instrument naming follows Prometheus conventions:
// <layer>_<event>_total for counters (wcl_forwards_peeled_total),
// <layer>_<quantity>_<unit> for gauges and histograms
// (transport_up_bytes, nylon_punch_rtt_ms).
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension (e.g. node="42").
type Label struct {
	Key   string
	Value string
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered instrument with its identity.
type metric struct {
	name   string
	labels []Label
	kind   metricKind

	h *Histogram

	// words holds the Stats fields behind a counter or gauge (an int64
	// field read as its uint64 bits), fns the functions behind a
	// kindGaugeFunc metric. Registering one key again appends to them
	// and the exported value is their sum: shared per-shard scopes
	// register one field or function per node. Each append publishes a
	// new slice header under Registry.mu, so export-time readers need
	// no lock.
	words atomic.Pointer[[]*uint64]
	fns   atomic.Pointer[[]func() float64]
}

// appended returns old with e appended. A reader holding old never
// looks past its length, so sharing old's backing array is safe.
func appended[E any](old *[]E, e E) *[]E {
	var s []E
	if old != nil {
		s = *old
	}
	s = append(s, e)
	return &s
}

// sum adds up the fields registered under a counter or gauge.
func (m *metric) sum() uint64 {
	var s uint64
	for _, p := range *m.words.Load() {
		s += atomic.LoadUint64(p)
	}
	return s
}

// fval sums the registered gauge functions. Only valid on
// kindGaugeFunc metrics.
func (m *metric) fval() float64 {
	var sum float64
	for _, fn := range *m.fns.Load() {
		sum += fn()
	}
	return sum
}

// value is a counter's, gauge's or gauge func's exported value.
func (m *metric) value() float64 {
	switch m.kind {
	case kindCounter:
		return float64(m.sum())
	case kindGauge:
		return float64(int64(m.sum()))
	default:
		return m.fval()
	}
}

// key renders the unique registry key: name plus sorted labels.
func metricKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	for _, l := range labels {
		sb.WriteByte('{')
		sb.WriteString(l.Key)
		sb.WriteByte('=')
		sb.WriteString(l.Value)
		sb.WriteByte('}')
	}
	return sb.String()
}

// Registry holds named instruments. Registration (Register and the
// Scope methods) is safe for concurrent use; the instruments
// themselves are atomic, so updates and export can race freely with
// protocol goroutines.
//
// The zero value is not usable; call NewRegistry.
type Registry struct {
	mu      sync.Mutex
	byKey   map[string]*metric
	metrics []*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

// Scope returns a scope on r carrying the given label pairs
// (key, value, key, value, ...). Typically one scope per node:
// reg.Scope("node", "42").
func (r *Registry) Scope(kv ...string) *Scope {
	if r == nil {
		return nil
	}
	return (&Scope{reg: r}).With(kv...)
}

// register finds or creates the instrument under (name, labels) and
// runs add on it with the registry locked. Kind mismatches on the same
// key are programming errors and panic.
func (r *Registry) register(name string, labels []Label, kind metricKind, add func(*metric)) *metric {
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.byKey[key]
	if !ok {
		m = &metric{name: name, labels: labels, kind: kind}
		r.byKey[key] = m
		r.metrics = append(r.metrics, m)
	} else if m.kind != kind {
		panic(fmt.Sprintf("obs: %s re-registered as %v (was %v)", key, kind, m.kind))
	}
	add(m)
	return m
}

// sorted returns the metrics ordered by name then label key, for
// stable export output.
func (r *Registry) sorted() []*metric {
	r.mu.Lock()
	out := make([]*metric, len(r.metrics))
	copy(out, r.metrics)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return metricKey("", out[i].labels) < metricKey("", out[j].labels)
	})
	return out
}

// Scope is a view of a registry with a fixed label set — the handle a
// node (or a layer of a node) instruments itself through. A nil Scope
// is valid: it registers nothing and hands out standalone histograms,
// so protocol code runs identically whether observability is enabled
// or not.
type Scope struct {
	reg    *Registry
	labels []Label
}

// With derives a scope with additional label pairs. Nil-safe.
func (s *Scope) With(kv ...string) *Scope {
	if s == nil {
		return nil
	}
	if len(kv)%2 != 0 {
		panic("obs: With needs key/value pairs")
	}
	labels := append([]Label(nil), s.labels...)
	for i := 0; i < len(kv); i += 2 {
		labels = append(labels, Label{Key: kv[i], Value: kv[i+1]})
	}
	sort.SliceStable(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key })
	return &Scope{reg: s.reg, labels: labels}
}

// GaugeFunc registers a gauge whose value is computed by fn at export
// time (e.g. reading an externally maintained atomic meter). fn must be
// safe to call from any goroutine. Registering the same key again adds
// another function and the gauge exports the sum of all of them — many
// nodes sharing one scope therefore roll up at read time. No-op on a
// nil scope.
func (s *Scope) GaugeFunc(name string, fn func() float64) {
	if s == nil {
		return
	}
	s.reg.register(name, s.labels, kindGaugeFunc, func(m *metric) { m.fns.Store(appended(m.fns.Load(), fn)) })
}

// Histogram returns the histogram registered under name in this scope.
// bounds are the bucket upper bounds (DefaultBuckets if empty); they
// are fixed at first registration.
func (s *Scope) Histogram(name string, bounds ...float64) *Histogram {
	if s == nil {
		return NewHistogram(bounds...)
	}
	m := s.reg.register(name, s.labels, kindHistogram, func(m *metric) {
		if m.h == nil {
			m.h = NewHistogram(bounds...)
		}
	})
	return m.h
}
