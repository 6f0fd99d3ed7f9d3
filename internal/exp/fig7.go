package exp

import (
	"fmt"
	"io"
	"time"

	"whisper/internal/identity"
	"whisper/internal/obs"
	"whisper/internal/parallel"
	"whisper/internal/ppss"
	"whisper/internal/sim"
	"whisper/internal/stats"
	"whisper/internal/wcl"
)

// Fig7Config parameterizes the anonymizing-route delay experiment
// (§V-E): the breakdown of PPSS view-exchange round-trip times over WCL
// channels into network routing and cryptographic costs.
type Fig7Config struct {
	Seed   int64
	N      int // cluster: 1,000; PlanetLab: 400
	Groups int
	Env    Env
	// Exchanges is the number of round-trips to sample (paper: 1,500).
	Exchanges int
	Warmup    time.Duration
	MaxRun    time.Duration // budget after warmup
	PPSS      ppss.Config
	// Parallel bounds the worker pool when several configs run through
	// Fig7 (<= 0: one worker per CPU; 1: sequential).
	Parallel int
}

func (c Fig7Config) withDefaults() Fig7Config {
	if c.N == 0 {
		if c.Env == PlanetLab {
			c.N = 400
		} else {
			c.N = 1000
		}
	}
	if c.Groups == 0 {
		c.Groups = c.N / 50
	}
	if c.Exchanges == 0 {
		c.Exchanges = 1500
	}
	if c.Warmup == 0 {
		c.Warmup = 10 * time.Minute
	}
	if c.MaxRun == 0 {
		c.MaxRun = 30 * time.Minute
	}
	return c
}

// Fig7Result holds the delay breakdown distributions for one testbed.
type Fig7Result struct {
	Env       Env
	RTTCDF    []stats.CDFPoint // seconds: full private view exchange RTT
	BuildCDF  []stats.CDFPoint // seconds: onion path construction (request & response)
	PeelCDF   []stats.CDFPoint // seconds: per-hop RSA decrypt (request & response)
	RTTMedian float64
	Samples   int
}

// tracer collects WCL path-construction and peeling costs across all
// nodes of a run. It is a plain obs.Collector: it sees durations only,
// never path identifiers.
type tracer struct {
	builds []time.Duration
	peels  []time.Duration
}

func (t *tracer) Record(_ uint64, ev obs.Event) {
	switch ev.Kind {
	case obs.KindSend:
		t.builds = append(t.builds, ev.Dur)
	case obs.KindPeel:
		t.peels = append(t.peels, ev.Dur)
	}
}

// Fig7 measures the breakdown for every config (one testbed each)
// concurrently; the worker count comes from the first config's
// Parallel field.
func Fig7(cfgs []Fig7Config) ([]Fig7Result, error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	workers := parallel.Workers(cfgs[0].Parallel)
	return parallel.Map(workers, len(cfgs), func(i int) (Fig7Result, error) {
		return fig7Run(cfgs[i], keyPool.View(i))
	})
}

func fig7Run(cfg Fig7Config, pool *identity.Pool) (Fig7Result, error) {
	cfg = cfg.withDefaults()
	w, err := sim.NewWorld(sim.Options{
		Seed:     cfg.Seed,
		N:        cfg.N,
		NATRatio: 0.7,
		Model:    cfg.Env.Model(),
		KeyPool:  pool,
		WCL:      &wcl.Config{MinPublic: 3},
		PPSS:     &cfg.PPSS,
		Obs:      worldObs("fig7/" + cfg.Env.String()),
	})
	if err != nil {
		return Fig7Result{}, err
	}
	startGroups(w, cfg.Groups, 1, cfg.Warmup)

	tr := &tracer{}
	var rtts []time.Duration
	for _, n := range w.Live() {
		if n.WCL == nil {
			continue
		}
		n.WCL.Trace = obs.NewTracer(uint64(n.Nylon.ID()), tr)
		for _, inst := range n.PPSS.Instances() {
			inst.OnExchangeRTT = func(rtt time.Duration) {
				rtts = append(rtts, rtt)
			}
		}
	}
	deadline := w.Sim.Now() + cfg.MaxRun
	for len(rtts) < cfg.Exchanges && w.Sim.Now() < deadline {
		w.Sim.RunFor(30 * time.Second)
	}

	res := Fig7Result{Env: cfg.Env, Samples: len(rtts)}
	rttS := durationsToSeconds(rtts)
	res.RTTCDF = stats.CDF(rttS)
	res.BuildCDF = stats.CDF(durationsToSeconds(tr.builds))
	res.PeelCDF = stats.CDF(durationsToSeconds(tr.peels))
	res.RTTMedian = stats.Percentile(rttS, 50)
	return res, nil
}

// PrintFig7 renders the breakdown distributions.
func PrintFig7(out io.Writer, results []Fig7Result) {
	fmt.Fprintln(out, "== Figure 7: breakdown of PPSS view-exchange round-trip times over WCL ==")
	for _, r := range results {
		fmt.Fprintf(out, "-- %s (%d exchanges sampled) --\n", r.Env, r.Samples)
		tb := stats.NewTable("component", "p50 (s)", "p90 (s)", "p99 (s)")
		row := func(name string, cdf []stats.CDFPoint) {
			vals := make([]float64, 0, len(cdf))
			for _, p := range cdf {
				vals = append(vals, p.Value)
			}
			ps := stats.Percentiles(vals, 50, 90, 99)
			tb.Row(name, fmt.Sprintf("%.6f", ps[0]), fmt.Sprintf("%.6f", ps[1]), fmt.Sprintf("%.6f", ps[2]))
		}
		row("total rtt", r.RTTCDF)
		row("build WCL path (req+resp)", r.BuildCDF)
		row("RSA decrypt per hop (req+resp)", r.PeelCDF)
		fmt.Fprint(out, tb.String())
		printCDF(out, fmt.Sprintf("%s total rtt (s)", r.Env), r.RTTCDF, 12, "%.4f")
		printCDF(out, fmt.Sprintf("%s path build (s)", r.Env), r.BuildCDF, 12, "%.6f")
		printCDF(out, fmt.Sprintf("%s peel (s)", r.Env), r.PeelCDF, 12, "%.6f")
	}
}

// Fig7ShapeCheck verifies the paper's qualitative findings: network
// delay dominates — crypto is roughly two orders of magnitude below the
// RTT — and the absolute RTT regimes hold (cluster well under a second,
// PlanetLab mostly within a couple of seconds).
func Fig7ShapeCheck(results []Fig7Result) []string {
	var bad []string
	for _, r := range results {
		if r.Samples == 0 {
			bad = append(bad, fmt.Sprintf("%s: no exchanges sampled", r.Env))
			continue
		}
		buildP50 := cdfPercentile(r.BuildCDF, 50)
		if buildP50*10 > r.RTTMedian {
			bad = append(bad, fmt.Sprintf("%s: onion build (%.4fs) not ≪ rtt (%.4fs)", r.Env, buildP50, r.RTTMedian))
		}
		switch r.Env {
		case Cluster:
			if frac := stats.CDFAt(r.RTTCDF, 0.5); frac < 0.95 {
				bad = append(bad, fmt.Sprintf("cluster: only %.0f%% of exchanges under 500 ms", frac*100))
			}
		case PlanetLab:
			if frac := stats.CDFAt(r.RTTCDF, 2.0); frac < 0.8 {
				bad = append(bad, fmt.Sprintf("planetlab: only %.0f%% of exchanges under 2 s (paper: >80%%)", frac*100))
			}
		}
	}
	return bad
}

func cdfPercentile(cdf []stats.CDFPoint, p float64) float64 {
	for _, pt := range cdf {
		if pt.Fraction*100 >= p {
			return pt.Value
		}
	}
	if len(cdf) == 0 {
		return 0
	}
	return cdf[len(cdf)-1].Value
}
