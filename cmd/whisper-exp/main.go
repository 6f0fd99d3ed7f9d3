// Command whisper-exp regenerates every table and figure of the
// paper's evaluation (§V) on the emulated substrate.
//
// Usage:
//
//	whisper-exp [flags] <experiment>
//
// Experiments: fig5, fig6, table1, fig7, table2, fig8, fig9, circuit,
// suites, transfer, pubsub, scale, all.
//
// The default parameters match the paper (1,000-node cluster runs,
// 400-node PlanetLab runs, 70% of nodes behind NATs, Π = 3, 1 KB keys).
// Use -scale to shrink every dimension proportionally for quick runs on
// modest hardware, e.g. -scale 0.25.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"whisper/internal/exp"
	"whisper/internal/obs"
	"whisper/internal/prof"
)

func main() { os.Exit(realMain()) }

// realMain is main returning its exit code, so deferred work (closing
// -out, stopping the profiles) runs on every path.
func realMain() int {
	var (
		seed     = flag.Int64("seed", 2011, "random seed for all experiments")
		scale    = flag.Float64("scale", 1.0, "scale factor for node counts and windows (1.0 = paper scale)")
		outRaw   = flag.String("out", "", "also write results to this file")
		check    = flag.Bool("check", true, "run shape checks against the paper's qualitative findings")
		par      = flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent simulation runs per experiment (1 = sequential, matching the pre-harness output byte for byte)")
		benchOut = flag.String("benchjson", "", "write machine-readable per-run timings to this JSON file")
		metrics  = flag.String("metrics-out", "", "write the metrics registry as JSON to this file after the run")
		shards   = flag.Int("shards", 8, "event shards for the scale experiment (1 = classic single-heap engine)")
		nodes    = flag.Int("nodes", 0, "scale experiment population override (0 = 100k x -scale)")
		virtual  = flag.Duration("virtual", 0, "scale experiment virtual runtime override (0 = 2m x -scale, floor 30s)")
		profiles = prof.Register(flag.CommandLine)
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: whisper-exp [flags] <fig5|fig6|table1|fig7|table2|fig8|fig9|circuit|suites|transfer|pubsub|ablate|scale|all>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		return 2
	}
	var out io.Writer = os.Stdout
	if *outRaw != "" {
		f, err := os.Create(*outRaw)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}
	r := runner{seed: *seed, scale: *scale, out: out, check: *check, parallel: *par,
		shards: *shards, nodes: *nodes, virtual: *virtual}
	name := flag.Arg(0)
	if *benchOut != "" {
		exp.BenchSink = &exp.BenchLog{}
		exp.BenchSink.SetMeta(exp.BenchMeta{
			Experiment: name,
			Seed:       *seed,
			Scale:      *scale,
			Parallel:   *par,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		})
	}
	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
		exp.ObsRoot = reg.Scope()
	}
	stopProfiles, err := profiles.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "whisper-exp:", err)
		return 1
	}
	start := time.Now()
	err = r.run(name)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "whisper-exp:", err)
		return 1
	}
	fmt.Fprintf(out, "\n[%s completed in %v]\n", name, time.Since(start).Round(time.Second))
	if exp.BenchSink != nil {
		exp.BenchSink.Record(exp.RunStat{
			Name:   "total/" + name,
			WallMS: float64(time.Since(start).Microseconds()) / 1000,
		})
		if err := exp.BenchSink.WriteJSON(*benchOut); err != nil {
			fmt.Fprintln(os.Stderr, "whisper-exp: writing bench json:", err)
			return 1
		}
	}
	if reg != nil {
		if err := reg.WriteJSON(*metrics); err != nil {
			fmt.Fprintln(os.Stderr, "whisper-exp: writing metrics json:", err)
			return 1
		}
	}
	if r.violations > 0 {
		fmt.Fprintf(out, "%d shape violation(s) — see above\n", r.violations)
		return 3
	}
	return 0
}

type runner struct {
	seed       int64
	scale      float64
	out        io.Writer
	check      bool
	parallel   int
	shards     int
	nodes      int           // scale population override (0 = derive from -scale)
	virtual    time.Duration // scale virtual-runtime override (0 = derive from -scale)
	violations int
}

func (r *runner) n(paper int) int {
	n := int(float64(paper) * r.scale)
	if n < 40 {
		n = 40
	}
	return n
}

func (r *runner) dur(paper time.Duration) time.Duration {
	d := time.Duration(float64(paper) * r.scale)
	if d < 4*time.Minute {
		d = 4 * time.Minute
	}
	return d
}

func (r *runner) report(violations []string) {
	if !r.check {
		return
	}
	for _, v := range violations {
		fmt.Fprintln(r.out, "SHAPE VIOLATION:", v)
		r.violations++
	}
	if len(violations) == 0 {
		fmt.Fprintln(r.out, "shape check: OK (matches the paper's qualitative findings)")
	}
}

func (r *runner) run(name string) error {
	switch name {
	case "fig5":
		return r.fig5()
	case "fig6":
		return r.fig6()
	case "table1":
		return r.table1()
	case "fig7":
		return r.fig7()
	case "table2":
		return r.table2()
	case "fig8":
		return r.fig8()
	case "fig9":
		return r.fig9()
	case "circuit":
		return r.circuit()
	case "suites":
		return r.suites()
	case "transfer":
		return r.transfer()
	case "pubsub":
		return r.pubsub()
	case "ablate":
		return r.ablate()
	case "scale":
		return r.scaleExp()
	case "all":
		for _, f := range []func() error{r.fig5, r.fig6, r.table1, r.fig7, r.table2, r.fig8, r.fig9, r.circuit, r.suites, r.transfer, r.pubsub} {
			if err := f(); err != nil {
				return err
			}
			fmt.Fprintln(r.out)
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
}

func (r *runner) fig5() error {
	res, err := exp.Fig5(exp.Fig5Config{
		Seed:     r.seed,
		N:        r.n(1000),
		Runtime:  r.dur(10 * time.Minute),
		Parallel: r.parallel,
	})
	if err != nil {
		return err
	}
	exp.PrintFig5(r.out, res)
	r.report(exp.Fig5ShapeCheck(res))
	return nil
}

func (r *runner) fig6() error {
	rows, err := exp.Fig6(exp.Fig6Config{
		Seed:     r.seed,
		N:        r.n(1000),
		Warmup:   r.dur(5 * time.Minute),
		Measure:  r.dur(5 * time.Minute),
		Parallel: r.parallel,
	})
	if err != nil {
		return err
	}
	exp.PrintFig6(r.out, rows)
	r.report(exp.Fig6ShapeCheck(rows))
	return nil
}

func (r *runner) table1() error {
	rows, err := exp.Table1(exp.Table1Config{
		Seed:     r.seed,
		N:        r.n(1000),
		Groups:   r.n(1000) / 50,
		Warmup:   r.dur(10 * time.Minute),
		Window:   r.dur(15 * time.Minute),
		Parallel: r.parallel,
	})
	if err != nil {
		return err
	}
	exp.PrintTable1(r.out, rows)
	r.report(exp.Table1ShapeCheck(rows))
	return nil
}

func (r *runner) fig7() error {
	var cfgs []exp.Fig7Config
	for _, env := range []exp.Env{exp.PlanetLab, exp.Cluster} {
		base := 1000
		if env == exp.PlanetLab {
			base = 400
		}
		cfgs = append(cfgs, exp.Fig7Config{
			Seed:      r.seed,
			N:         r.n(base),
			Env:       env,
			Exchanges: int(1500 * r.scale),
			Warmup:    r.dur(10 * time.Minute),
			MaxRun:    r.dur(30 * time.Minute),
			Parallel:  r.parallel,
		})
	}
	results, err := exp.Fig7Runs(cfgs)
	if err != nil {
		return err
	}
	exp.PrintFig7(r.out, results)
	r.report(exp.Fig7ShapeCheck(results))
	return nil
}

func (r *runner) table2() error {
	res, err := exp.Table2(exp.Table2Config{
		Seed:   r.seed,
		N:      r.n(1000),
		Warmup: r.dur(10 * time.Minute),
	})
	if err != nil {
		return err
	}
	exp.PrintTable2(r.out, res)
	r.report(exp.Table2ShapeCheck(res))
	return nil
}

func (r *runner) fig8() error {
	groups := []int{1, 2, 4, 8, 16, 32}
	if r.scale < 0.5 {
		groups = []int{1, 2, 4, 8}
	}
	rows, err := exp.Fig8(exp.Fig8Config{
		Seed:          r.seed,
		N:             r.n(400),
		Groups:        r.n(120),
		GroupsPerNode: groups,
		Warmup:        r.dur(10 * time.Minute),
		Measure:       r.dur(10 * time.Minute),
		Parallel:      r.parallel,
	})
	if err != nil {
		return err
	}
	exp.PrintFig8(r.out, rows)
	r.report(exp.Fig8ShapeCheck(rows))
	return nil
}

func (r *runner) ablate() error {
	rows, err := exp.Ablations(exp.AblateConfig{
		Seed:     r.seed,
		N:        r.n(300),
		Warmup:   r.dur(10 * time.Minute),
		Measure:  r.dur(8 * time.Minute),
		Parallel: r.parallel,
	})
	if err != nil {
		return err
	}
	exp.PrintAblations(r.out, rows)
	r.report(exp.AblationShapeCheck(rows))
	return nil
}

func (r *runner) scaleExp() error {
	// The scale run sizes off its own 100k-node baseline (not the
	// 1,000-node paper figures) and skips the 4-minute duration floor:
	// small -scale values are how CI keeps the smoke run cheap. -nodes
	// and -virtual override either dimension directly, so CI can pin
	// an exact population (e.g. 250k smoke) without back-deriving a
	// scale factor.
	rt := r.virtual
	if rt == 0 {
		rt = time.Duration(float64(2*time.Minute) * r.scale)
		if rt < 30*time.Second {
			rt = 30 * time.Second
		}
	}
	n := r.nodes
	if n == 0 {
		n = r.n(100_000)
	}
	res, err := exp.Scale(exp.ScaleConfig{
		Seed:    r.seed,
		N:       n,
		Shards:  r.shards,
		Runtime: rt,
		Env:     exp.PlanetLab,
		Rollup: func(ru exp.ScaleRollup) {
			fmt.Fprintf(os.Stderr, "\rscale: %v / %v virtual, %d events in %d windows",
				ru.Now.Round(time.Second), ru.Total, ru.Events, ru.Windows)
		},
	})
	fmt.Fprintln(os.Stderr)
	if err != nil {
		return err
	}
	exp.PrintScale(r.out, res)
	r.report(exp.ScaleShapeCheck(res))
	return nil
}

func (r *runner) circuit() error {
	res, err := exp.Circuit(exp.CircuitConfig{
		Seed: r.seed,
		N:    r.n(300),
	})
	if err != nil {
		return err
	}
	exp.PrintCircuit(r.out, res)
	r.report(exp.CircuitShapeCheck(res))
	return nil
}

func (r *runner) suites() error {
	res, err := exp.Suites(exp.SuitesConfig{
		Seed: r.seed,
		N:    r.n(300),
	})
	if err != nil {
		return err
	}
	exp.PrintSuites(r.out, res)
	r.report(exp.SuitesShapeCheck(res))
	return nil
}

func (r *runner) transfer() error {
	res, err := exp.Transfer(exp.TransferConfig{
		Seed: r.seed,
		N:    r.n(300),
	})
	if err != nil {
		return err
	}
	exp.PrintTransfer(r.out, res)
	r.report(exp.TransferShapeCheck(res))
	return nil
}

func (r *runner) pubsub() error {
	res, err := exp.PubSub(exp.PubSubConfig{
		Seed: r.seed,
		N:    r.n(160),
	})
	if err != nil {
		return err
	}
	exp.PrintPubSub(r.out, res)
	r.report(exp.PubSubShapeCheck(res))
	return nil
}

func (r *runner) fig9() error {
	res, err := exp.Fig9(exp.Fig9Config{
		Seed:      r.seed,
		N:         r.n(400),
		GroupSize: r.n(60),
		Queries:   int(350 * r.scale),
		Warmup:    r.dur(12 * time.Minute),
		RingTime:  r.dur(10 * time.Minute),
	})
	if err != nil {
		return err
	}
	exp.PrintFig9(r.out, res)
	r.report(exp.Fig9ShapeCheck(res))
	return nil
}
