package exp

import (
	"flag"
	"os"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata golden files with current output")

// TestFig5Golden pins the exact output of a small Figure 5 run at a
// fixed seed against a golden file generated before the transport
// refactor. The simulated substrate promises event-for-event
// determinism; any change to protocol logic, the scheduler, RNG
// consumption order, or the transport/simnet adapter that shifts even
// one event shows up here as a byte-level diff.
//
// Regenerate (only after an intentional behavior change) with:
//
//	go test ./internal/exp -run TestFig5Golden -update-golden
func TestFig5Golden(t *testing.T) {
	cfg := newFig5(Params{Seed: 42, Scale: 1, Parallel: 1})
	cfg.N, cfg.Runtime, cfg.PiValues = 60, 2*time.Minute, []int{0, 2}
	res, err := cfg.run()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	res.print(&sb)
	got := sb.String()

	const path = "testdata/fig5_seed42.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("fig5 output diverged from golden at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
	t.Fatal("fig5 output diverged from golden (length mismatch)")
}

// TestScaleGolden pins the fingerprint of `whisper-exp -scale 0.02
// -shards 8 scale` (and of the same world run for two minutes) as the
// engine printed it while the barrier still stable-sorted every exchange
// by (time, source shard) and each shard kept one binary heap. The
// sort-free exchange and the calendar queue claim to produce the very
// same schedule, not merely a self-consistent one: these lines say so.
func TestScaleGolden(t *testing.T) {
	for _, tc := range []struct {
		runtime time.Duration
		want    string
	}{
		{30 * time.Second, "fingerprint: n=2000 shards=8 events=15834 sent=11670 dropped=249 live=2000 windows=747"},
		{2 * time.Minute, "fingerprint: n=2000 shards=8 events=77544 sent=55275 dropped=1135 live=2000 windows=4851"},
	} {
		res, err := newScale(Params{Seed: 2011, Nodes: 2000, Shards: 8, Virtual: tc.runtime}).run()
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		res.print(&sb)
		lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
		if got := lines[len(lines)-1]; got != tc.want {
			t.Errorf("scale run of %v:\n got %s\nwant %s", tc.runtime, got, tc.want)
		}
	}
}
