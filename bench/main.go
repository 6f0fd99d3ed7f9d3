// Command bench is the repository's benchmark: five named workloads,
// twelve end-to-end metrics, and a traced run that says which layer the
// time went to. See README.md in this directory.
//
// Every (workload, run) executes in a fresh child process — this binary
// re-executed — with GOMAXPROCS set explicitly, so peak memory, GC state
// and set-up cost of one run never leak into the next. Load is generated
// in virtual time from that one process; the network is emulated
// (internal/netem): no real link or loopback socket is crossed.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

const (
	defaultSeed    = 2011
	defaultSeconds = 6
	// setups is how many times a plain run sets its world up, each in a
	// fresh process; setup_s is their median.
	setups = 3
	// runDeadline bounds one invocation for one (workload, trace) pair,
	// children included.
	runDeadline = 170 * time.Second
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int // 0 plain, 1 traced, -1 both
	runs     int
	out      string
	traceOut string
	scale    float64
	child    string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all five)")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed: reaches the program as sim.Options.Seed and as generated payloads")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "host seconds the timed part of a run lasts at least")
	flag.IntVar(&o.trace, "trace", -1, "0 = plain run (end-to-end metrics), 1 = traced run (per-layer metrics), -1 = both")
	flag.IntVar(&o.runs, "runs", 1, "plain runs per workload; -compare reads their spread")
	flag.StringVar(&o.out, "out", "", "write every run's result to this JSON file (the input of -compare)")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the spans of traced runs to this file, one JSON object per line (the workload name is inserted before the extension)")
	flag.Float64Var(&o.scale, "scale", 0.1, "op-count multiplier of -verify (plain and traced runs ignore it)")
	verify := flag.Bool("verify", false, "determinism self-check: every workload at -scale twice in one process, virtual metrics and fingerprints must be identical")
	compare := flag.Bool("compare", false, "compare two -out files: bench -compare old.json new.json")
	printSpec := flag.Bool("spec", false, "print BENCHMARK.json as the program's tables define it")
	flag.StringVar(&o.child, "child", "", "internal: run as the child process of one run (run|setup)")
	flag.Parse()

	var err error
	switch {
	case o.child != "":
		err = childMain(o)
	case *printSpec:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(spec())
	case *compare:
		err = compareMain(flag.Args(), os.Stdout)
	case *verify:
		err = verifyMain(o, os.Stdout)
	default:
		err = parentMain(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned after the results are printed when a
// correctness gate failed.
var errIncorrect = errors.New("correctness gate failed")

// childMain is one fresh process: it measures (or only sets up) one
// workload and prints its result as one JSON object.
func childMain(o options) error {
	wl := findWorkload(o.workload)
	if wl == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	enc := json.NewEncoder(os.Stdout)
	if o.child == "setup" {
		b, err := setUp(wl, o.seed, nil)
		if err != nil {
			return err
		}
		return enc.Encode(&runResult{Workload: wl.Name, Seed: o.seed, Correct: len(b.err) == 0, Problems: b.err,
			Metrics: map[string]float64{"setup_s": b.setup.Seconds()}})
	}
	var tr *tracer
	if o.trace == 1 {
		tr = newTracer()
	}
	res, err := run(wl, o.seed, time.Duration(o.seconds*float64(time.Second)), tr)
	if err != nil {
		return err
	}
	if tr != nil {
		if err := runDirect(res.Metrics, directBatches); err != nil {
			return err
		}
		if o.traceOut != "" {
			if err := tr.writeSpans(o.traceOut); err != nil {
				return err
			}
		}
	}
	return enc.Encode(res)
}

// meta records where and how a ledger was measured.
type meta struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Network    string  `json:"network"`
}

type ledger struct {
	Meta meta         `json:"meta"`
	Runs []*runResult `json:"runs"`
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// parentMain runs the requested (workload, trace) pairs, each in fresh
// child processes, one after the other.
func parentMain(o options) error {
	var wls []*workload
	if o.workload == "" {
		wls = workloads
	} else if wl := findWorkload(o.workload); wl != nil {
		wls = []*workload{wl}
	} else {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	procs := min(runtime.NumCPU(), 4)
	led := ledger{Meta: meta{
		Seed: o.seed, Seconds: o.seconds, NProc: runtime.NumCPU(), GOMAXPROCS: procs,
		Go: runtime.Version(), Commit: commit(),
		Network: "emulated (internal/netem): no real link or loopback socket is crossed",
	}}
	fmt.Fprintf(os.Stderr, "bench: seed=%d seconds=%g nproc=%d GOMAXPROCS=%d %s commit=%s\nbench: network: %s\n",
		o.seed, o.seconds, led.Meta.NProc, procs, led.Meta.Go, led.Meta.Commit, led.Meta.Network)

	var last *runResult
	for _, wl := range wls {
		var plain *runResult
		if o.trace != 1 {
			for i := 0; i < o.runs; i++ {
				res, err := plainRun(o, wl, procs)
				if err != nil {
					return err
				}
				report(os.Stderr, res, endToEnd)
				led.Runs = append(led.Runs, res)
				plain, last = res, res
			}
		}
		if o.trace != 0 {
			res, err := spawn(o, wl, procs, "run", 1)
			if err != nil {
				return err
			}
			report(os.Stderr, res, perLayer())
			if plain != nil {
				fmt.Fprintf(os.Stderr, "  %-32s %12.4g  (traced / plain ops_per_s)\n", "trace_overhead",
					res.Metrics["trace.ops_per_s"]/plain.Metrics["ops_per_s"])
			}
			led.Runs = append(led.Runs, res)
			last = res
		}
	}
	if o.out != "" {
		data, err := json.MarshalIndent(&led, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	correct := true
	for _, r := range led.Runs {
		correct = correct && r.Correct
	}
	if len(led.Runs) == 1 {
		if err := printContract(os.Stdout, last); err != nil {
			return err
		}
	}
	if !correct {
		return errIncorrect
	}
	return nil
}

// plainRun makes one plain run: setups-1 set-up-only children, then the
// measuring child; setup_s becomes the median over all of them.
func plainRun(o options, wl *workload, procs int) (*runResult, error) {
	var setupS []float64
	var problems []string
	for i := 1; i < setups; i++ {
		r, err := spawn(o, wl, procs, "setup", 0)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, r.Metrics["setup_s"])
		problems = append(problems, r.Problems...)
	}
	res, err := spawn(o, wl, procs, "run", 0)
	if err != nil {
		return nil, err
	}
	res.SetupS = append(setupS, res.Metrics["setup_s"])
	res.Metrics["setup_s"] = median(res.SetupS)
	res.Problems = append(res.Problems, problems...)
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// spawn re-executes this binary as one child and decodes its result.
func spawn(o options, wl *workload, procs int, mode string, trace int) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", mode, "-workload", wl.Name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
	if trace == 1 && o.traceOut != "" {
		path := o.traceOut
		if i := strings.LastIndexByte(path, '.'); i > strings.LastIndexByte(path, '/') {
			path = path[:i] + "." + wl.Name + path[i:]
		} else {
			path += "." + wl.Name
		}
		args = append(args, "-trace-out", path)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s child of %s: %w", mode, wl.Name, err)
	}
	res := &runResult{}
	if err := json.Unmarshal(out, res); err != nil {
		return nil, fmt.Errorf("%s child of %s: decoding result: %w", mode, wl.Name, err)
	}
	return res, nil
}

// report prints one run for people: counts first, then every metric of
// defs the run produced.
func report(w io.Writer, r *runResult, defs []metricDef) {
	kind := "plain"
	if r.Trace {
		kind = "traced"
	}
	fmt.Fprintf(w, "== %s (%s run, seed %d) ==\n", r.Workload, kind, r.Seed)
	fmt.Fprintf(w, "  ops of the fixed part: attempted=%d succeeded=%d failed=%d; submissions=%d of which failed=%d; delivered=%d duplicates=%d\n",
		r.Ops.Attempted, r.Ops.Succeeded, r.Ops.Failed, r.Ops.Submissions, r.Ops.SubmitFails, r.Ops.Delivered, r.Ops.Duplicates)
	fmt.Fprintf(w, "  timed part: %d ops in %.2f s (%.1f/s overall), %d slices, %d latency samples, fixed part %.1f virtual s\n",
		r.OpsTotal, r.MeasuredS, r.OpsPerSTotal, r.Slices, r.LatencySamples, r.FixedVirtualS)
	fmt.Fprintf(w, "  fingerprint: %s\n", r.Fingerprint)
	for _, d := range defs {
		if v, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-32s %12.6g %-6s (%s, %s is better)\n", d.Name, v, d.Unit, d.Clock, d.Better)
		}
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  INCORRECT: %s\n", p)
	}
}

// printContract writes the driver's result line: one JSON object with
// exactly the keys correct, attempted, failed and metrics.
func printContract(w io.Writer, r *runResult) error {
	defs := endToEnd
	if r.Trace {
		defs = perLayer()
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Ops.Attempted, r.Ops.Failed, map[string]value{}}
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is missing or not finite", r.Workload, d.Name)
		}
		out.Metrics[d.Name] = value{v, d.Unit}
	}
	data, err := json.Marshal(&out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
