package exp

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"whisper/internal/wire/wiretest"
)

// TestExperimentTable checks the whisper-exp table: unique names, the
// historical `all` order, an error for unknown names, and every entry
// run twice at its minimum scale, at GOMAXPROCS 1 and then 4 (with one
// worker per CPU), with no shape violations and byte-equal text. The
// text is all virtual time; the host-timed rows are in Report.Host.
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

	// These entries' checks also bound ratios of host CPU time, which
	// the race detector's instrumentation distorts (ROADMAP item 11):
	// under -race their violations are logged, and their text is still
	// compared. TestFig7Shape and TestSuitesShape keep failing under
	// -race on a small host until item 11 lands.
	hostChecked := map[string]bool{"fig7": true, "table2": true, "circuit": true, "suites": true}
	run := func(procs int) []string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var texts []string
		for _, e := range Experiments() {
			rep, err := e.Run(Params{Seed: 2011, Scale: e.MinScale, Shards: 8})
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", e.Name, procs, err)
			}
			for _, v := range rep.Violations {
				if wiretest.RaceEnabled && hostChecked[e.Name] {
					t.Logf("%s at GOMAXPROCS %d under -race: shape violation: %s", e.Name, procs, v)
					continue
				}
				t.Errorf("%s at GOMAXPROCS %d: shape violation: %s", e.Name, procs, v)
			}
			if rep.Fingerprint != "" && !strings.Contains(rep.Text, "fingerprint: "+rep.Fingerprint+"\n") {
				t.Errorf("%s: report text lacks its fingerprint line %q", e.Name, rep.Fingerprint)
			}
			texts = append(texts, rep.Text)
		}
		return texts
	}
	one, four := run(1), run(4)
	for i, e := range Experiments() {
		if one[i] != four[i] {
			t.Errorf("%s differs between GOMAXPROCS 1 and 4:\n--- 1 ---\n%s--- 4 ---\n%s", e.Name, one[i], four[i])
		}
	}
}

// TestCountNeverZero pins the count helper's floor: at a scale where
// paper-sized workload counts truncate to 0, the scaled count stays at
// least 1, so Fig 7 still samples exchanges and Fig 9 routes queries.
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

// TestFig9TwiceByteEqual runs the fig9 entry twice in one process, at
// one GOMAXPROCS: the text is all virtual, so it must come out
// byte-equal. It did not while PPSS refreshed its persistent pool in
// map order, each ping drawing from the simulation's RNG.
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
