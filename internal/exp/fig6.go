package exp

import (
	"fmt"
	"io"
	"time"

	"whisper/internal/nylon"
	"whisper/internal/parallel"
	"whisper/internal/sim"
	"whisper/internal/stats"
)

// Fig6Config parameterizes the public-key sampling cost experiment
// (§V-C): average bandwidth per PSS cycle under various Π and P:N
// ratios, with and without key exchange.
type Fig6Config struct {
	Seed    int64
	N       int           // paper: 1,000
	Warmup  time.Duration // settling time before measuring
	Measure time.Duration // measurement window
	Cycle   time.Duration // PSS cycle (paper: 10 s)
	// Ratios are the N-node fractions to test (paper: 0.8, 0.7, 0.5).
	Ratios []float64
	// PiValues with key sampling enabled (paper: 1, 2, 3); Π=0 runs
	// both without keys (pure baseline) and with key sampling.
	PiValues    []int
	KeyBlobSize int // paper: 1 KB keys
	// Parallel bounds the worker pool running the independent
	// ratio×setup runs (<= 0: one worker per CPU; 1: sequential).
	Parallel int
}

func (c Fig6Config) withDefaults() Fig6Config {
	if c.N == 0 {
		c.N = 1000
	}
	if c.Warmup == 0 {
		c.Warmup = 5 * time.Minute
	}
	if c.Measure == 0 {
		c.Measure = 5 * time.Minute
	}
	if c.Cycle == 0 {
		c.Cycle = 10 * time.Second
	}
	if c.Ratios == nil {
		c.Ratios = []float64{0.8, 0.7, 0.5}
	}
	if c.PiValues == nil {
		c.PiValues = []int{1, 2, 3}
	}
	if c.KeyBlobSize == 0 {
		c.KeyBlobSize = 1024
	}
	return c
}

// Fig6Row is one bar group of the figure: bandwidth per cycle for N-
// and P-nodes under one configuration.
type Fig6Row struct {
	Config   string  // "unbiased", "unbiased+KS", "Pi=1+KS", ...
	NATRatio float64 // N-node fraction
	// KB per PSS cycle, averaged per node over the window.
	NUpKB, NDownKB float64
	PUpKB, PDownKB float64
}

// Fig6 measures PSS+key-sampling bandwidth for every configuration.
func Fig6(cfg Fig6Config) ([]Fig6Row, error) {
	cfg = cfg.withDefaults()
	type setup struct {
		label string
		pi    int
		keys  bool
	}
	setups := []setup{{"unbiased", 0, false}, {"unbiased+KS", 0, true}}
	for _, pi := range cfg.PiValues {
		setups = append(setups, setup{fmt.Sprintf("Pi=%d+KS", pi), pi, true})
	}
	// Flatten ratio×setup into one job list (ratio outer, setup inner —
	// the sequential harness's nesting order) so the worker pool sees
	// every independent run.
	type job struct {
		ratio float64
		st    setup
	}
	var jobs []job
	for _, ratio := range cfg.Ratios {
		for _, st := range setups {
			jobs = append(jobs, job{ratio, st})
		}
	}
	workers := parallel.Workers(cfg.Parallel)
	return parallel.Map(workers, len(jobs), func(i int) (Fig6Row, error) {
		ratio, st := jobs[i].ratio, jobs[i].st
		w, err := sim.NewWorld(sim.Options{
			Seed:     cfg.Seed,
			N:        cfg.N,
			NATRatio: ratio,
			KeyPool:  keyPool.View(i),
			Nylon: nylon.Config{
				Cycle:       cfg.Cycle,
				MinPublic:   st.pi,
				KeySampling: st.keys,
				KeyBlobSize: cfg.KeyBlobSize,
			},
			Obs: worldObs(fmt.Sprintf("fig6/ratio=%.1f/%s", ratio, st.label)),
		})
		if err != nil {
			return Fig6Row{}, err
		}
		w.StartAll()
		w.Sim.RunUntil(cfg.Warmup)
		w.ResetMeters()
		w.Sim.RunFor(cfg.Measure)

		pUp, pDown, nUp, nDown := classBandwidth(w, float64(cfg.Measure)/float64(cfg.Cycle))
		return Fig6Row{
			Config:   st.label,
			NATRatio: ratio,
			NUpKB:    stats.Summarize(nUp).Mean,
			NDownKB:  stats.Summarize(nDown).Mean,
			PUpKB:    stats.Summarize(pUp).Mean,
			PDownKB:  stats.Summarize(pDown).Mean,
		}, nil
	})
}

// PrintFig6 renders the bandwidth table.
func PrintFig6(out io.Writer, rows []Fig6Row) {
	fmt.Fprintln(out, "== Figure 6: Public Key Sampling Service — bandwidth costs (KB/cycle per node) ==")
	tb := stats.NewTable("N:P ratio", "config", "N up", "N down", "P up", "P down")
	for _, r := range rows {
		tb.Row(fmt.Sprintf("N:%.0f%%-P:%.0f%%", r.NATRatio*100, (1-r.NATRatio)*100),
			r.Config, r.NUpKB, r.NDownKB, r.PUpKB, r.PDownKB)
	}
	fmt.Fprint(out, tb.String())
}

// Fig6ShapeCheck verifies the paper's qualitative findings: key
// sampling adds visible cost over the bare PSS, cost grows with Π,
// P-nodes pay more than N-nodes under bias, and everything stays within
// the "very reasonable margins" regime (a few KB per cycle).
func Fig6ShapeCheck(rows []Fig6Row) []string {
	var bad []string
	byConfig := map[string]map[float64]Fig6Row{}
	for _, r := range rows {
		if byConfig[r.Config] == nil {
			byConfig[r.Config] = map[float64]Fig6Row{}
		}
		byConfig[r.Config][r.NATRatio] = r
	}
	for ratio, base := range byConfig["unbiased"] {
		ks, ok := byConfig["unbiased+KS"][ratio]
		if !ok {
			continue
		}
		if ks.NUpKB <= base.NUpKB {
			bad = append(bad, fmt.Sprintf("ratio %.1f: key sampling did not increase N-node upload", ratio))
		}
	}
	for _, r := range rows {
		if r.Config == "Pi=3+KS" && r.PUpKB+r.PDownKB < r.NUpKB+r.NDownKB {
			bad = append(bad, fmt.Sprintf("ratio %.1f: P-nodes cheaper than N-nodes at Pi=3", r.NATRatio))
		}
		if r.PUpKB > 40 || r.NUpKB > 40 {
			bad = append(bad, fmt.Sprintf("%s at ratio %.1f: bandwidth out of the reasonable regime", r.Config, r.NATRatio))
		}
	}
	return bad
}
