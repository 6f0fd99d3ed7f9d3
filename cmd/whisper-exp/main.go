// Command whisper-exp regenerates every table and figure of the
// paper's evaluation (§V) on the emulated substrate.
//
// Usage:
//
//	whisper-exp [flags] <experiment|all>
//
// The experiments are the entries of internal/exp's table; -h lists them.
//
// The default parameters match the paper (1,000-node cluster runs,
// 400-node PlanetLab runs, 70% of nodes behind NATs, Π = 3, 1 KB keys).
// Use -scale to shrink every dimension proportionally for quick runs on
// modest hardware, e.g. -scale 0.25. An experiment asked to run below
// its table entry's minimum scale runs at that minimum instead, after a
// one-line note.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
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
		metrics  = flag.String("metrics-out", "", "write the metrics registry as JSON to this file after the run")
		shards   = flag.Int("shards", 8, "event shards for the scale experiment (1 = classic single-heap engine)")
		nodes    = flag.Int("nodes", 0, "scale experiment population override (0 = 100k x -scale)")
		virtual  = flag.Duration("virtual", 0, "scale experiment virtual runtime override (0 = 2m x -scale, floor 30s)")
		profiles = prof.Register(flag.CommandLine)
	)
	var names []string
	for _, e := range exp.Experiments() {
		names = append(names, e.Name)
	}
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: whisper-exp [flags] <%s|all>\n", strings.Join(names, "|"))
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
	name := flag.Arg(0)
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
	p := exp.Params{Seed: *seed, Scale: *scale, Parallel: *par, Shards: *shards,
		Nodes: *nodes, Virtual: *virtual, Progress: os.Stderr}
	violations, err := run(out, name, p, *check)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "whisper-exp:", err)
		return 1
	}
	fmt.Fprintf(out, "\n[%s completed in %v]\n", name, time.Since(start).Round(time.Second))
	if reg != nil {
		if err := reg.WriteJSON(*metrics); err != nil {
			fmt.Fprintln(os.Stderr, "whisper-exp: writing metrics json:", err)
			return 1
		}
	}
	if violations > 0 {
		fmt.Fprintf(out, "%d shape violation(s) — see above\n", violations)
		return 3
	}
	return 0
}

// run executes the experiments name selects, printing each report and,
// when check is set, its shape verdict. It returns the violation count.
func run(out io.Writer, name string, p exp.Params, check bool) (int, error) {
	sel, err := exp.Select(name)
	if err != nil {
		return 0, err
	}
	violations := 0
	for _, e := range sel {
		ep, note := e.Scaled(p)
		if note != "" {
			fmt.Fprintln(out, note)
		}
		rep, err := e.Run(ep)
		if err != nil {
			return violations, err
		}
		fmt.Fprint(out, rep.Text)
		if check {
			for _, v := range rep.Violations {
				fmt.Fprintln(out, "SHAPE VIOLATION:", v)
			}
			if len(rep.Violations) == 0 {
				fmt.Fprintln(out, "shape check: OK (matches the paper's qualitative findings)")
			}
			violations += len(rep.Violations)
		}
		if name == "all" {
			fmt.Fprintln(out)
		}
	}
	return violations, nil
}
