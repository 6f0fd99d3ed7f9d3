package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"whisper/internal/stats"
)

// observeAll records values into a fresh default-bucket histogram and
// returns its snapshot.
func observeAll(values []float64) HistogramSnapshot {
	h := NewHistogram()
	for _, v := range values {
		h.Observe(v)
	}
	return h.Snapshot()
}

// clampSample maps arbitrary quick-generated floats into the positive
// range histograms are used for (durations in ms).
func clampSample(raw []float64) []float64 {
	out := make([]float64, 0, len(raw))
	for _, v := range raw {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		out = append(out, math.Mod(math.Abs(v), 100000))
	}
	return out
}

// TestMergeAssociativeAndCommutative: (a⊕b)⊕c == a⊕(b⊕c) and a⊕b == b⊕a
// exactly on bucket counts and totals; Sum within float tolerance.
func TestMergeAssociativeAndCommutative(t *testing.T) {
	prop := func(ra, rb, rc []float64) bool {
		a := observeAll(clampSample(ra))
		b := observeAll(clampSample(rb))
		c := observeAll(clampSample(rc))
		left := a.Merge(b).Merge(c)
		right := a.Merge(b.Merge(c))
		ab, ba := a.Merge(b), b.Merge(a)
		return snapshotsEqual(t, left, right) && snapshotsEqual(t, ab, ba)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func snapshotsEqual(t *testing.T, x, y HistogramSnapshot) bool {
	t.Helper()
	if x.Count != y.Count {
		t.Logf("count %d != %d", x.Count, y.Count)
		return false
	}
	if x.Count == 0 {
		return true
	}
	if len(x.Counts) != len(y.Counts) {
		t.Logf("bucket layout %d != %d", len(x.Counts), len(y.Counts))
		return false
	}
	for i := range x.Counts {
		if x.Counts[i] != y.Counts[i] {
			t.Logf("bucket %d: %d != %d", i, x.Counts[i], y.Counts[i])
			return false
		}
	}
	// Float addition is associative only up to rounding.
	tol := 1e-9 * (1 + math.Abs(x.Sum))
	if math.Abs(x.Sum-y.Sum) > tol {
		t.Logf("sum %v != %v", x.Sum, y.Sum)
		return false
	}
	return true
}

// TestQuantileBounds checks the estimator against the exact order
// statistics of the same sample: the reported quantile is a valid upper
// bound (orderStat ≤ Quantile) and is the tightest bucket bound (the
// next-lower bound is strictly below the order statistic). Count and
// Sum must agree with internal/stats.Summarize on the same data.
func TestQuantileBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prop := func(raw []float64) bool {
		sample := clampSample(raw)
		// quick tends to generate tiny slices; pad with exponentially
		// distributed latencies to exercise many buckets.
		for len(sample) < 32 {
			sample = append(sample, rng.ExpFloat64()*200)
		}
		snap := observeAll(sample)
		sum := stats.Summarize(sample)
		if snap.Count != uint64(sum.N) {
			t.Logf("count %d != %d", snap.Count, sum.N)
			return false
		}
		if math.Abs(snap.Sum-sum.Sum) > 1e-6*(1+math.Abs(sum.Sum)) {
			t.Logf("sum %v != %v", snap.Sum, sum.Sum)
			return false
		}
		sorted := append([]float64(nil), sample...)
		sort.Float64s(sorted)
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 1.0} {
			rank := int(math.Ceil(q * float64(len(sorted))))
			if rank < 1 {
				rank = 1
			}
			exact := sorted[rank-1]
			got := snap.Quantile(q)
			if exact > got {
				t.Logf("q=%v: order stat %v above estimate %v", q, exact, got)
				return false
			}
			// Tightness: the bucket below the answer must not contain
			// the order statistic.
			i := sort.SearchFloat64s(snap.Bounds, got)
			if i > 0 && exact <= snap.Bounds[i-1] && got != snap.Bounds[i-1] {
				t.Logf("q=%v: estimate %v not tight (order stat %v <= %v)", q, got, exact, snap.Bounds[i-1])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var empty HistogramSnapshot
	if !math.IsNaN(empty.Quantile(0.5)) || !math.IsNaN(empty.Mean()) {
		t.Fatal("empty histogram must yield NaN")
	}
	h := NewHistogram(1, 2)
	h.Observe(100) // beyond last bound → overflow bucket
	if !math.IsInf(h.Quantile(0.5), 1) {
		t.Fatal("overflow observations must quantile to +Inf")
	}
	h2 := NewHistogram(1, 2)
	h2.Observe(1) // exactly on a bound → that bucket (le semantics)
	if got := h2.Quantile(1.0); got != 1 {
		t.Fatalf("le semantics broken: %v", got)
	}
	if got := h2.Snapshot().Mean(); got != 1 {
		t.Fatalf("mean = %v", got)
	}
	s := h2.Snapshot()
	if m := s.Merge(HistogramSnapshot{}); m.Count != 1 {
		t.Fatal("merging with empty must be identity")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched layouts must panic")
		}
	}()
	bad := NewHistogram(1, 2, 3).Snapshot()
	bad.Counts[0] = 1
	bad.Count = 1
	s.Merge(bad)
}

func TestObserveDuration(t *testing.T) {
	h := NewHistogram()
	h.ObserveDuration(250 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != 250 {
		t.Fatalf("duration observed as %v ms (count %d), want 250", s.Sum, s.Count)
	}
}

func TestNewHistogramPanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing bounds must panic")
		}
	}()
	NewHistogram(1, 1)
}

func BenchmarkCounterInc(b *testing.B) {
	var st sendStats
	Register(NewRegistry().Scope("node", "1"), &st)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Inc(&st.Sends)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Scope("node", "1").Histogram("bench_ms")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 1000))
	}
}
