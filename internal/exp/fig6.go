package exp

import (
	"fmt"
	"io"
	"time"

	"whisper/internal/identity"
	"whisper/internal/nylon"
	"whisper/internal/sim"
	"whisper/internal/stats"
)

// fig6Config is the public-key sampling cost experiment (§V-C):
// average bandwidth per PSS cycle under various Π and P:N ratios, with
// and without key exchange.
type fig6Config struct {
	Seed        int64
	N           int
	Warmup      time.Duration // settling time before measuring
	Measure     time.Duration // measurement window
	Ratios      []float64     // the N-node fractions to test
	PiValues    []int         // run with key sampling; Π=0 runs both without keys (pure baseline) and with them
	KeyBlobSize int
	Parallel    int // bounds the worker pool running the independent ratio×setup runs (<= 0: one per CPU; 1: sequential)
}

// newFig6 is the paper's setup: 1,000 nodes, N-node shares of 80, 70
// and 50 %, Π = 1..3 and 1 KB keys, measured for 5 minutes after 5.
func newFig6(p Params) fig6Config {
	return fig6Config{Seed: p.Seed, N: p.n(1000), Warmup: p.dur(5 * time.Minute), Measure: p.dur(5 * time.Minute),
		Ratios: []float64{0.8, 0.7, 0.5}, PiValues: []int{1, 2, 3}, KeyBlobSize: 1024, Parallel: p.Parallel}
}

// fig6Cycle is the PSS cycle of every Fig 6 run (paper: 10 s).
const fig6Cycle = 10 * time.Second

// fig6Row is one bar group of the figure: bandwidth per cycle for N-
// and P-nodes under one configuration.
type fig6Row struct {
	Config   string  // "unbiased", "unbiased+KS", "Pi=1+KS", ...
	NATRatio float64 // N-node fraction
	// KB per PSS cycle, averaged per node over the window.
	NUpKB, NDownKB float64
	PUpKB, PDownKB float64
}

type fig6Rows []fig6Row

// run measures PSS+key-sampling bandwidth for every configuration.
func (cfg fig6Config) run() (fig6Rows, error) {
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
	return sweep(cfg.Parallel, jobs, func(j job, pool *identity.Pool) (fig6Row, error) {
		ratio, st := j.ratio, j.st
		w, err := newWorld(fmt.Sprintf("fig6/ratio=%.1f/%s", ratio, st.label), sim.Options{
			Seed:     cfg.Seed,
			N:        cfg.N,
			NATRatio: ratio,
			KeyPool:  pool,
			Nylon: nylon.Config{
				Cycle:       fig6Cycle,
				MinPublic:   st.pi,
				KeySampling: st.keys,
				KeyBlobSize: cfg.KeyBlobSize,
			},
		})
		if err != nil {
			return fig6Row{}, err
		}
		w.StartAll()
		w.Sim.RunUntil(cfg.Warmup)
		w.ResetMeters()
		w.Sim.RunFor(cfg.Measure)

		pUp, pDown, nUp, nDown := classBandwidth(w, float64(cfg.Measure)/float64(fig6Cycle))
		return fig6Row{
			Config:   st.label,
			NATRatio: ratio,
			NUpKB:    stats.Summarize(nUp).Mean,
			NDownKB:  stats.Summarize(nDown).Mean,
			PUpKB:    stats.Summarize(pUp).Mean,
			PDownKB:  stats.Summarize(pDown).Mean,
		}, nil
	})
}

// print renders the bandwidth table.
func (rows fig6Rows) print(out io.Writer) {
	fmt.Fprintln(out, "== Figure 6: Public Key Sampling Service — bandwidth costs (KB/cycle per node) ==")
	tb := stats.NewTable("N:P ratio", "config", "N up", "N down", "P up", "P down")
	for _, r := range rows {
		tb.Row(fmt.Sprintf("N:%.0f%%-P:%.0f%%", r.NATRatio*100, (1-r.NATRatio)*100),
			r.Config, r.NUpKB, r.NDownKB, r.PUpKB, r.PDownKB)
	}
	fmt.Fprint(out, tb.String())
}

// check verifies the paper's qualitative findings: key sampling adds
// visible cost over the bare PSS, cost grows with Π, P-nodes pay more
// than N-nodes under bias, and everything stays within the "very
// reasonable margins" regime (a few KB per cycle). Violations come in
// row order.
func (rows fig6Rows) check() []string {
	var bad []string
	for _, base := range rows {
		if base.Config != "unbiased" {
			continue
		}
		for _, ks := range rows {
			if ks.Config == "unbiased+KS" && ks.NATRatio == base.NATRatio && ks.NUpKB <= base.NUpKB {
				bad = append(bad, fmt.Sprintf("ratio %.1f: key sampling did not increase N-node upload", base.NATRatio))
			}
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
