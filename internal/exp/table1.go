package exp

import (
	"fmt"
	"io"
	"time"

	"whisper/internal/churn"
	"whisper/internal/identity"
	"whisper/internal/ppss"
	"whisper/internal/sim"
	"whisper/internal/stats"
	"whisper/internal/wcl"
)

// table1Config is the WCL-route availability experiment under churn
// (§V-D): private groups over a Π = 3 WCL, churned by the script of
// Table I at varying rates.
type table1Config struct {
	Seed     int64
	N        int
	Groups   int
	Rates    []float64     // churn, % of the population per minute
	Warmup   time.Duration // group formation + convergence
	Window   time.Duration // churn + measurement window
	PPSS     ppss.Config
	Parallel int // bounds the worker pool running the independent per-rate runs (<= 0: one per CPU; 1: sequential)
}

// newTable1 is the paper's setup: 1,000 nodes, 20 groups, Π = 3
// helpers, churn of 0 to 10 %/min over a 15-minute window.
func newTable1(p Params) table1Config {
	return table1Config{Seed: p.Seed, N: p.n(1000), Groups: p.n(1000) / 50, Rates: []float64{0, 0.2, 1, 5, 10},
		Warmup: p.dur(10 * time.Minute), Window: p.dur(15 * time.Minute), PPSS: ppss.Config{MinHelpers: 3}, Parallel: p.Parallel}
}

// table1Row is one line of Table I.
type table1Row struct {
	RatePct    float64
	SuccessPct float64 // first-attempt success
	AltPct     float64 // needed (and generally found) an alternative
	NoAltPct   float64 // no alternative route existed
	// Average distinct first/second mixes tried per route (§V-D text).
	AvgMixes   float64
	AvgHelpers float64
	Routes     uint64
}

type table1Rows []table1Row

// run runs the churn experiment for each rate, one worker per rate.
func (cfg table1Config) run() (table1Rows, error) { return sweep(cfg.Parallel, cfg.Rates, cfg.runRate) }

func (cfg table1Config) runRate(rate float64, pool *identity.Pool) (table1Row, error) {
	w, err := newWorld(fmt.Sprintf("table1/rate=%.1f", rate), sim.Options{
		Seed:    cfg.Seed,
		N:       cfg.N,
		KeyPool: pool,
		PPSS:    &cfg.PPSS,
	})
	if err != nil {
		return table1Row{}, err
	}
	gs := startGroups(w, cfg.Groups, 1, cfg.Warmup)

	// Leaders are pinned (not killed) so admissions stay possible; the
	// measured quantity is WCL route construction, not leader liveness.
	leaders := map[identity.NodeID]bool{}
	for _, n := range w.Live() {
		if n.PPSS == nil {
			continue
		}
		for _, inst := range n.PPSS.Instances() {
			if inst.IsLeader() {
				leaders[n.ID()] = true
			}
		}
	}

	// Per-route accounting with the paper's footnote-3 rule: routes
	// whose destination itself has failed are not WCL route failures
	// (the PPSS treats them as destination failures and removes the
	// node from the private view).
	var tally struct {
		first, alt, failed, noAlt uint64
		mixes, helpers            uint64
		routes                    uint64
	}
	measuring := false
	hook := func(n *sim.Node) {
		if n.WCL == nil {
			return
		}
		n.WCL.OnResult = func(dest identity.NodeID, r wcl.Result) {
			if !measuring {
				return
			}
			if r.Outcome != wcl.Success && w.Get(dest) == nil {
				return // destination died: not a route failure
			}
			tally.routes++
			tally.mixes += uint64(r.MixesTried)
			tally.helpers += uint64(r.HelpersTried)
			switch r.Outcome {
			case wcl.Success:
				tally.first++
			case wcl.AltSuccess:
				tally.alt++
			default:
				tally.failed++
				if r.NoAlternative {
					tally.noAlt++
				}
			}
		}
	}
	for _, n := range w.Live() {
		hook(n)
	}
	rng := w.Sim.Rand()
	actions := churn.Actions{
		Population: func() int { return len(w.Live()) },
		Leave: func(count int) {
			live := w.Live()
			rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
			killed := 0
			for _, n := range live {
				if killed >= count {
					break
				}
				if leaders[n.ID()] {
					continue
				}
				w.Kill(n)
				killed++
			}
		},
		Join: func(count int) {
			for i := 0; i < count; i++ {
				n := w.Spawn()
				hook(n)
				n.Nylon.Start()
				// Subscribe to one random group once the underlay has
				// bootstrapped (the paper's nodes do the same on arrival).
				node := n
				w.Sim.After(30*time.Second, func() {
					if !node.Nylon.Stopped() {
						gs.joinRandom(node)
					}
				})
			}
		},
	}

	measuring = true
	if rate > 0 {
		plan := churn.Plan{Steps: []churn.Step{
			churn.SetReplacement{At: w.Sim.Now(), Ratio: 1.0},
			churn.ConstChurn{From: w.Sim.Now(), To: w.Sim.Now() + cfg.Window, RatePct: rate, Interval: time.Minute},
		}}
		plan.Run(w.Sim, actions)
	}
	w.Sim.RunFor(cfg.Window)
	measuring = false

	if tally.routes == 0 {
		return table1Row{RatePct: rate}, nil
	}
	routes := float64(tally.routes)
	row := table1Row{
		RatePct:    rate,
		SuccessPct: 100 * float64(tally.first) / routes,
		AltPct:     100 * float64(tally.alt+tally.failed-tally.noAlt) / routes,
		NoAltPct:   100 * float64(tally.noAlt) / routes,
		AvgMixes:   float64(tally.mixes) / routes,
		AvgHelpers: float64(tally.helpers) / routes,
		Routes:     tally.routes,
	}
	return row, nil
}

// print renders Table I.
func (rows table1Rows) print(out io.Writer) {
	fmt.Fprintln(out, "== Table I: WCL route construction under churn ==")
	tb := stats.NewTable("churn %/min", "Success", "Alt.", "No alt.", "avg mixes", "avg helpers", "routes")
	for _, r := range rows {
		tb.Row(r.RatePct,
			fmt.Sprintf("%.1f%%", r.SuccessPct),
			fmt.Sprintf("%.2f%%", r.AltPct),
			fmt.Sprintf("%.2f%%", r.NoAltPct),
			fmt.Sprintf("%.2f", r.AvgMixes),
			fmt.Sprintf("%.2f", r.AvgHelpers),
			r.Routes)
	}
	fmt.Fprint(out, tb.String())
}

// check verifies the qualitative claims: success stays very high
// (paper: ≥ 90.9% even at 10%/min), decreases with churn, and most
// recoveries find an alternative.
func (rows table1Rows) check() []string {
	var bad []string
	for i, r := range rows {
		if r.Routes == 0 {
			bad = append(bad, fmt.Sprintf("rate %.1f: no routes constructed", r.RatePct))
			continue
		}
		if r.RatePct == 0 && r.SuccessPct < 97 {
			bad = append(bad, fmt.Sprintf("no-churn success only %.1f%%", r.SuccessPct))
		}
		if r.SuccessPct < 80 {
			bad = append(bad, fmt.Sprintf("rate %.1f: success %.1f%% below the paper's regime", r.RatePct, r.SuccessPct))
		}
		if i > 0 && r.SuccessPct > rows[0].SuccessPct+1 {
			bad = append(bad, fmt.Sprintf("rate %.1f: success above the no-churn baseline", r.RatePct))
		}
		if r.NoAltPct > r.AltPct && r.NoAltPct > 3 {
			bad = append(bad, fmt.Sprintf("rate %.1f: NoAlt (%.2f%%) dominates Alt (%.2f%%)", r.RatePct, r.NoAltPct, r.AltPct))
		}
	}
	return bad
}
