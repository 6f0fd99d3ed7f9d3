package exp

import (
	"fmt"
	"io"
	"time"

	"whisper/internal/churn"
	"whisper/internal/identity"
	"whisper/internal/parallel"
	"whisper/internal/ppss"
	"whisper/internal/sim"
	"whisper/internal/stats"
	"whisper/internal/wcl"
)

// Table1Config parameterizes the WCL-route availability experiment
// under churn (§V-D): 1,000 nodes, 20 private groups, Π = 3, and the
// churn script of Table I with varying rates.
type Table1Config struct {
	Seed   int64
	N      int // paper: 1,000
	Groups int // paper: 20
	Pi     int // paper: 3
	Rates  []float64
	Warmup time.Duration // group formation + convergence
	Window time.Duration // churn + measurement window (paper: 15 min)
	PPSS   ppss.Config
	// Parallel bounds the worker pool running the independent per-rate
	// runs (<= 0: one worker per CPU; 1: sequential).
	Parallel int
}

func (c Table1Config) withDefaults() Table1Config {
	if c.N == 0 {
		c.N = 1000
	}
	if c.Groups == 0 {
		c.Groups = 20
	}
	if c.Pi == 0 {
		c.Pi = 3
	}
	if c.Rates == nil {
		c.Rates = []float64{0, 0.2, 1, 5, 10}
	}
	if c.Warmup == 0 {
		c.Warmup = 10 * time.Minute
	}
	if c.Window == 0 {
		c.Window = 15 * time.Minute
	}
	return c
}

// Table1Row is one line of Table I.
type Table1Row struct {
	RatePct    float64
	SuccessPct float64 // first-attempt success
	AltPct     float64 // needed (and generally found) an alternative
	NoAltPct   float64 // no alternative route existed
	// Average distinct first/second mixes tried per route (§V-D text).
	AvgMixes   float64
	AvgHelpers float64
	Routes     uint64
}

// Table1 runs the churn experiment for each rate, one worker per rate.
func Table1(cfg Table1Config) ([]Table1Row, error) {
	cfg = cfg.withDefaults()
	workers := parallel.Workers(cfg.Parallel)
	return parallel.Map(workers, len(cfg.Rates), func(i int) (Table1Row, error) {
		return table1Run(cfg, cfg.Rates[i], keyPool.View(i))
	})
}

func table1Run(cfg Table1Config, rate float64, pool *identity.Pool) (Table1Row, error) {
	pcfg := cfg.PPSS
	if pcfg.MinHelpers == 0 {
		pcfg.MinHelpers = cfg.Pi
	}
	w, err := sim.NewWorld(sim.Options{
		Seed:     cfg.Seed,
		N:        cfg.N,
		NATRatio: 0.7,
		KeyPool:  pool,
		WCL:      &wcl.Config{MinPublic: cfg.Pi},
		PPSS:     &pcfg,
		Obs:      worldObs(fmt.Sprintf("table1/rate=%.1f", rate)),
	})
	if err != nil {
		return Table1Row{}, err
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
						gs.JoinRandom(node)
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
		return Table1Row{RatePct: rate}, nil
	}
	routes := float64(tally.routes)
	row := Table1Row{
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

// PrintTable1 renders Table I.
func PrintTable1(out io.Writer, rows []Table1Row) {
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

// Table1ShapeCheck verifies the qualitative claims: success stays very
// high (paper: ≥ 90.9% even at 10%/min), decreases with churn, and
// most recoveries find an alternative.
func Table1ShapeCheck(rows []Table1Row) []string {
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
