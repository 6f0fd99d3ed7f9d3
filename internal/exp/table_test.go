package exp

import (
	"slices"
	"strings"
	"testing"
	"time"
)

// TestExperimentTable checks the whisper-exp table: unique names, the
// historical `all` order, an error for unknown names, and — for every
// entry that reports a fingerprint — the same fingerprint from two runs
// in one process, with no shape violations.
func TestExperimentTable(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if seen[e.Name] {
			t.Errorf("duplicate experiment %q", e.Name)
		}
		seen[e.Name] = true
	}
	all, err := Select("all")
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, e := range all {
		order = append(order, e.Name)
	}
	want := []string{"fig5", "fig6", "table1", "fig7", "table2", "fig8", "fig9", "circuit", "suites", "transfer", "pubsub"}
	if !slices.Equal(order, want) {
		t.Errorf("all = %v, want %v", order, want)
	}
	if _, err := Select("fig10"); err == nil {
		t.Error("unknown experiment selected without error")
	}

	p := Params{Seed: 2011, Scale: 0.05, Parallel: 1, Shards: 8}
	for _, name := range []string{"transfer", "pubsub", "scale"} {
		sel, err := Select(name)
		if err != nil {
			t.Fatal(err)
		}
		var fps [2]string
		for i := range fps {
			rep, err := sel[0].Run(p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, v := range rep.Violations {
				t.Errorf("%s: shape violation: %s", name, v)
			}
			if !strings.Contains(rep.Text, "fingerprint: "+rep.Fingerprint+"\n") {
				t.Errorf("%s: report text lacks its fingerprint line %q", name, rep.Fingerprint)
			}
			fps[i] = rep.Fingerprint
		}
		if fps[0] == "" || fps[0] != fps[1] {
			t.Errorf("%s: fingerprints %q and %q, want equal and non-empty", name, fps[0], fps[1])
		}
	}
}

// TestCountNeverZero pins the count helper's floor: at a scale where
// paper-sized workload counts truncate to 0, the scaled count stays at
// least 1 instead of reading as "unset" (which the Fig 7 and Fig 9
// configs would replace with the full 1,500 exchanges and 350 queries).
func TestCountNeverZero(t *testing.T) {
	p := Params{Scale: 0.002}
	for _, tc := range []struct{ paper, want int }{{1500, 3}, {350, 1}, {1, 1}} {
		if got := p.count(tc.paper); got != tc.want {
			t.Errorf("count(%d) at scale %v = %d, want %d", tc.paper, p.Scale, got, tc.want)
		}
	}
	if got := p.n(1000); got != 40 {
		t.Errorf("n(1000) at scale %v = %d, want the 40-node floor", p.Scale, got)
	}
	if got := p.dur(10 * time.Minute); got != 4*time.Minute {
		t.Errorf("dur(10m) at scale %v = %v, want the 4-minute floor", p.Scale, got)
	}
}

// TestFig9TwiceByteEqual runs the fig9 entry twice in one process: the
// text is all virtual, so it must come out byte-equal. It did not while
// PPSS refreshed its persistent pool in map order, each ping drawing
// from the simulation's RNG.
func TestFig9TwiceByteEqual(t *testing.T) {
	sel, err := Select("fig9")
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Seed: 2011, Scale: 0.05, Parallel: 1}
	var texts [2]string
	for i := range texts {
		rep, err := sel[0].Run(p)
		if err != nil {
			t.Fatal(err)
		}
		texts[i] = rep.Text
	}
	if texts[0] != texts[1] {
		t.Fatalf("fig9 differs between two runs:\n--- first ---\n%s--- second ---\n%s", texts[0], texts[1])
	}
}

// TestMinScale pins the rule for scales below an entry's stated
// minimum: Scaled raises them to the minimum with a one-line note, and
// leaves every other scale alone.
func TestMinScale(t *testing.T) {
	for _, e := range Experiments() {
		if e.MinScale < 0 || e.MinScale > 1 {
			t.Errorf("%s: MinScale %v outside [0, 1]", e.Name, e.MinScale)
		}
		for _, tc := range []struct {
			scale, want float64
			note        bool
		}{
			{e.MinScale / 2, e.MinScale, e.MinScale > 0},
			{e.MinScale, e.MinScale, false},
			{1, 1, false},
		} {
			p, note := e.Scaled(Params{Seed: 7, Scale: tc.scale, Parallel: 3})
			if p.Scale != tc.want || p.Seed != 7 || p.Parallel != 3 {
				t.Errorf("%s: Scaled(%v) = %+v, want scale %v and the rest unchanged", e.Name, tc.scale, p, tc.want)
			}
			if (note != "") != tc.note || strings.Contains(note, "\n") {
				t.Errorf("%s: Scaled(%v) note %q, want one line: %v", e.Name, tc.scale, note, tc.note)
			}
		}
	}
}
