package exp

import (
	"reflect"
	"testing"
	"time"
)

// fig5TestConfig is a small Fig5 setup used by the determinism test and
// the harness benchmark: four independent runs, enough nodes to exercise
// the full stack.
func fig5TestConfig(parallel int) fig5Config {
	cfg := newFig5(Params{Seed: 71, Scale: 1, Parallel: parallel})
	cfg.N, cfg.Runtime = 120, 4*time.Minute
	return cfg
}

// TestParallelMatchesSequential is the harness's core guarantee: each
// (config, seed) run owns a private Sim and a scheduling-independent
// key-pool view, so running the same experiment with 1 worker and with
// several workers must produce identical per-run results, in the same
// order.
func TestParallelMatchesSequential(t *testing.T) {
	seq, err := fig5TestConfig(1).run()
	if err != nil {
		t.Fatal(err)
	}
	par, err := fig5TestConfig(3).run()
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("sequential %d results, parallel %d", len(seq), len(par))
	}
	for i := range seq {
		// The sequential path draws keys from the shared process-wide
		// pool (whose cursor depends on test order), the parallel path
		// from per-run views — but key assignment must not influence
		// results, so everything measured has to match exactly.
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Errorf("run %d (Pi=%d): parallel result differs from sequential", i, seq[i].Pi)
		}
	}
}

// BenchmarkParallelExpHarness times a full Fig5 sweep through the
// worker pool at GOMAXPROCS workers. Compare with -parallel 1 via
// BenchmarkSequentialExpHarness to see the multi-core speedup; on a
// single-core machine the two are expected to tie.
func BenchmarkParallelExpHarness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := fig5TestConfig(0).run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSequentialExpHarness is the -parallel 1 baseline.
func BenchmarkSequentialExpHarness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := fig5TestConfig(1).run(); err != nil {
			b.Fatal(err)
		}
	}
}
