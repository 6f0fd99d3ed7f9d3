package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// DefaultBuckets is the default histogram bucket layout: upper bounds
// in roughly 1-2.5-5 decades. The unit is whatever the instrument
// observes — the stack's convention is milliseconds for durations
// (nylon_punch_rtt_ms, wcl_peel_ms), so the default span covers 50 µs
// to one minute.
var DefaultBuckets = []float64{
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50,
	100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000,
}

// Histogram accumulates observations into fixed buckets. Observation
// is an atomic add (allocation-free once the bucket array exists);
// merging and quantile estimation happen on snapshots. Safe on a nil
// receiver.
//
// The bucket array is allocated lazily on the first Observe: every
// simulated node registers duration histograms it may never feed (a
// node that never punches never observes a punch RTT), and with the
// default 19-bound layout each eager array cost 160 bytes across the
// whole population.
type Histogram struct {
	bounds []float64 // strictly increasing upper bounds
	// counts holds len(bounds)+1 counters (the last is the +Inf
	// overflow), nil until the first observation.
	counts atomic.Pointer[[]atomic.Uint64]
	count  atomic.Uint64
	sum    atomicFloat
}

// NewHistogram creates a histogram with the given bucket upper bounds
// (DefaultBuckets if none). Bounds must be strictly increasing. The
// bounds slice is retained, not copied — callers must not mutate it
// (the common DefaultBuckets case shares one package-level array across
// every histogram in the process).
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{bounds: bounds}
}

// buckets returns the counter array, allocating it on first use. The
// CAS makes a racing first Observe from two goroutines converge on one
// array; the loser's allocation is garbage.
func (h *Histogram) buckets() []atomic.Uint64 {
	if p := h.counts.Load(); p != nil {
		return *p
	}
	fresh := make([]atomic.Uint64, len(h.bounds)+1)
	if h.counts.CompareAndSwap(nil, &fresh) {
		return fresh
	}
	return *h.counts.Load()
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v; equal values land in the
	// bucket they bound (Prometheus "le" semantics).
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets()[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// ObserveDuration records d in milliseconds, the stack's duration unit.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d) / float64(time.Millisecond))
}

// Snapshot returns a consistent-enough copy for export and analysis.
// (Bucket counts and the total are read without a global lock; a
// concurrent Observe may be visible in one and not the other, which is
// harmless for monitoring output.)
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.bounds)+1),
		Sum:    h.sum.load(),
	}
	if p := h.counts.Load(); p != nil {
		for i := range *p {
			s.Counts[i] = (*p)[i].Load()
			s.Count += s.Counts[i]
		}
	}
	return s
}

// atomicFloat accumulates a float64 sum with a CAS loop (no mutex, no
// allocation).
type atomicFloat struct {
	bits atomic.Uint64
}

func (a *atomicFloat) add(v float64) {
	for {
		old := a.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if a.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (a *atomicFloat) load() float64 { return math.Float64frombits(a.bits.Load()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Quantile estimates the q-quantile; see HistogramSnapshot.Quantile.
func (h *Histogram) Quantile(q float64) float64 { return h.Snapshot().Quantile(q) }

// HistogramSnapshot is an immutable histogram state. Counts has one
// entry per bound plus a final +Inf overflow bucket.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Merge combines two snapshots with identical bounds into a new one.
// Merging is associative and commutative on bucket counts and totals
// (the float Sum is associative up to rounding).
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	if s.Count == 0 {
		return o
	}
	if o.Count == 0 {
		return s
	}
	if len(s.Counts) != len(o.Counts) {
		panic("obs: merging histograms with different bucket layouts")
	}
	out := HistogramSnapshot{
		Bounds: s.Bounds,
		Counts: make([]uint64, len(s.Counts)),
		Count:  s.Count + o.Count,
		Sum:    s.Sum + o.Sum,
	}
	for i := range s.Counts {
		out.Counts[i] = s.Counts[i] + o.Counts[i]
	}
	return out
}

// Quantile returns an upper bound for the q-quantile (q in [0, 1]): the
// smallest bucket bound b such that at least ceil(q·n) observations are
// ≤ b. Observations beyond the last finite bound yield +Inf. An empty
// histogram yields NaN.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

// Mean returns the mean observation (NaN when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	return s.Sum / float64(s.Count)
}
