package exp

import (
	"fmt"
	"io"
	"strings"
	"time"

	"whisper/internal/identity"
	"whisper/internal/obs"
	"whisper/internal/ppss"
	"whisper/internal/sim"
	"whisper/internal/stats"
)

// fig7Config is the anonymizing-route delay experiment (§V-E): the
// breakdown of PPSS view-exchange round-trip times over WCL channels
// into network routing and cryptographic costs, one run per testbed.
type fig7Config struct {
	Seed      int64
	Beds      []fig7Bed
	Exchanges int // round trips to sample per testbed
	Warmup    time.Duration
	MaxRun    time.Duration // budget after warmup
	PPSS      ppss.Config
	Parallel  int // bounds the worker pool running the testbeds (<= 0: one per CPU; 1: sequential)
}

// fig7Bed is one testbed run: its latency model and population, with
// one private group per 50 nodes.
type fig7Bed struct {
	Env env
	N   int
}

// newFig7 is the paper's setup: 400 PlanetLab nodes and 1,000 cluster
// nodes, sampling 1,500 exchanges each.
func newFig7(p Params) fig7Config {
	return fig7Config{Seed: p.Seed, Beds: []fig7Bed{{planetLab, p.n(400)}, {cluster, p.n(1000)}}, Exchanges: p.count(1500),
		Warmup: p.dur(10 * time.Minute), MaxRun: p.dur(30 * time.Minute), Parallel: p.Parallel}
}

// fig7Row holds the delay breakdown distributions for one testbed.
type fig7Row struct {
	Env       env
	RTTCDF    []stats.CDFPoint // seconds: full private view exchange RTT
	BuildCDF  []stats.CDFPoint // seconds: onion path construction (request & response)
	PeelCDF   []stats.CDFPoint // seconds: per-hop RSA decrypt (request & response)
	RTTMedian float64
	Samples   int
}

type fig7Rows []fig7Row

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

// run measures the breakdown on every testbed concurrently.
func (cfg fig7Config) run() (fig7Rows, error) { return sweep(cfg.Parallel, cfg.Beds, cfg.runBed) }

func (cfg fig7Config) runBed(bed fig7Bed, pool *identity.Pool) (fig7Row, error) {
	w, err := newWorld("fig7/"+bed.Env.String(), sim.Options{
		Seed:    cfg.Seed,
		N:       bed.N,
		Model:   bed.Env.model(),
		KeyPool: pool,
		PPSS:    &cfg.PPSS,
	})
	if err != nil {
		return fig7Row{}, err
	}
	startGroups(w, bed.N/50, 1, cfg.Warmup)

	tr := &tracer{}
	for _, n := range w.Live() {
		n.WCL.Trace = obs.NewTracer(uint64(n.Nylon.ID()), tr)
	}
	var rtts []time.Duration
	recordRTTs(w, &rtts)
	deadline := w.Sim.Now() + cfg.MaxRun
	for len(rtts) < cfg.Exchanges && w.Sim.Now() < deadline {
		w.Sim.RunFor(30 * time.Second)
	}

	res := fig7Row{Env: bed.Env, Samples: len(rtts)}
	rttS := durationsToSeconds(rtts)
	res.RTTCDF = stats.CDF(rttS)
	res.BuildCDF = stats.CDF(durationsToSeconds(tr.builds))
	res.PeelCDF = stats.CDF(durationsToSeconds(tr.peels))
	res.RTTMedian = stats.Percentile(rttS, 50)
	return res, nil
}

// table renders one testbed's breakdown as lines: header, rule, then
// the total rtt row (virtual time) and the build and peel rows (host
// CPU time). One rendering keeps the column widths of both halves
// equal to those of the whole table.
func (r fig7Row) table() []string {
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
	return strings.SplitAfter(tb.String(), "\n")
}

// print renders the round-trip distributions.
func (rows fig7Rows) print(out io.Writer) {
	fmt.Fprintln(out, "== Figure 7: breakdown of PPSS view-exchange round-trip times over WCL ==")
	for _, r := range rows {
		fmt.Fprintf(out, "-- %s (%d exchanges sampled) --\n", r.Env, r.Samples)
		lines := r.table()
		fmt.Fprint(out, lines[0]+lines[1]+lines[2])
		printCDF(out, fmt.Sprintf("%s total rtt (s)", r.Env), r.RTTCDF, 12, "%.4f")
	}
}

// printHost renders the crypto components, timed on the host.
func (rows fig7Rows) printHost(out io.Writer) {
	for _, r := range rows {
		lines := r.table()
		fmt.Fprintf(out, "-- %s crypto --\n", r.Env)
		fmt.Fprint(out, lines[0]+lines[1]+lines[3]+lines[4])
		printCDF(out, fmt.Sprintf("%s path build (s)", r.Env), r.BuildCDF, 12, "%.6f")
		printCDF(out, fmt.Sprintf("%s peel (s)", r.Env), r.PeelCDF, 12, "%.6f")
	}
}

// check verifies the paper's qualitative findings: network delay
// dominates — crypto is roughly two orders of magnitude below the RTT —
// and the absolute RTT regimes hold (cluster well under a second,
// PlanetLab mostly within a couple of seconds).
func (results fig7Rows) check() []string {
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
		case cluster:
			if frac := stats.CDFAt(r.RTTCDF, 0.5); frac < 0.95 {
				bad = append(bad, fmt.Sprintf("cluster: only %.0f%% of exchanges under 500 ms", frac*100))
			}
		case planetLab:
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
