package exp

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Params sizes one whisper-exp invocation. Scale shrinks every paper
// dimension proportionally; Shards, Nodes and Virtual apply to the
// scale experiment only.
type Params struct {
	Seed     int64
	Scale    float64
	Parallel int           // concurrent runs per experiment (1 = sequential)
	Shards   int           // event shards (1 = single-heap engine)
	Nodes    int           // population override (0 = 100k × Scale)
	Virtual  time.Duration // virtual-runtime override (0 = 2m × Scale, floor 30s)
	Progress io.Writer     // receives the scale run's progress line; nil = silent
}

// scaled is paper × p.Scale, truncated, and never below floor.
func scaled[T int | time.Duration](p Params, paper, floor T) T {
	return max(T(float64(paper)*p.Scale), floor)
}

// n scales a population or group count (floor 40 nodes).
func (p Params) n(paper int) int { return scaled(p, paper, 40) }

// count scales a workload count such as exchanges or queries. The floor
// of 1 matters: a 0 would read as "unset" and the Config's defaults
// would silently restore the paper-sized load.
func (p Params) count(paper int) int { return scaled(p, paper, 1) }

// dur scales a warm-up or measurement window (floor 4 minutes).
func (p Params) dur(paper time.Duration) time.Duration { return scaled(p, paper, 4*time.Minute) }

// Report is what one experiment hands back to the runner.
type Report struct {
	Text        string   // the rows and series the experiment's Print function emits
	Violations  []string // shape-check failures; empty when the paper's findings hold
	Fingerprint string   // schedule-derived digest, also the text's "fingerprint:" line; "" if none
}

// Experiment is one entry of the whisper-exp table.
type Experiment struct {
	Name  string
	InAll bool // run by `whisper-exp all`
	// MinScale is the smallest Params.Scale the entry's shape check is
	// known to hold at; Scaled raises a smaller one to it.
	MinScale float64
	Run      func(Params) (Report, error)
}

// Scaled returns p with its scale raised to the entry's MinScale, and
// a one-line note saying so when it had to be raised.
func (e Experiment) Scaled(p Params) (Params, string) {
	if p.Scale >= e.MinScale {
		return p, ""
	}
	note := fmt.Sprintf("note: %s runs at its minimum scale %g instead of %g", e.Name, e.MinScale, p.Scale)
	p.Scale = e.MinScale
	return p, note
}

// fingerprinter is implemented by results that carry a determinism
// digest; their Print function ends with its "fingerprint:" line.
type fingerprinter interface{ fingerprint() string }

// report renders res with print and checks its shape.
func report[R any](res R, err error, print func(io.Writer, R), check func(R) []string) (Report, error) {
	if err != nil {
		return Report{}, err
	}
	var sb strings.Builder
	print(&sb, res)
	rep := Report{Text: sb.String(), Violations: check(res)}
	if f, ok := any(res).(fingerprinter); ok {
		rep.Fingerprint = f.fingerprint()
	}
	return rep, nil
}

// experiments is the table, in usage order; `all` runs the InAll
// entries in this order.
var experiments = []Experiment{
	{"fig5", true, 0.05, func(p Params) (Report, error) {
		res, err := Fig5(Fig5Config{Seed: p.Seed, N: p.n(1000), Runtime: p.dur(10 * time.Minute), Parallel: p.Parallel})
		return report(res, err, PrintFig5, Fig5ShapeCheck)
	}},
	{"fig6", true, 0.05, func(p Params) (Report, error) {
		rows, err := Fig6(Fig6Config{Seed: p.Seed, N: p.n(1000),
			Warmup: p.dur(5 * time.Minute), Measure: p.dur(5 * time.Minute), Parallel: p.Parallel})
		return report(rows, err, PrintFig6, Fig6ShapeCheck)
	}},
	{"table1", true, 0.05, func(p Params) (Report, error) {
		rows, err := Table1(Table1Config{Seed: p.Seed, N: p.n(1000), Groups: p.n(1000) / 50,
			Warmup: p.dur(10 * time.Minute), Window: p.dur(15 * time.Minute), Parallel: p.Parallel})
		return report(rows, err, PrintTable1, Table1ShapeCheck)
	}},
	{"fig7", true, 0.15, func(p Params) (Report, error) {
		var cfgs []Fig7Config
		for _, env := range []Env{PlanetLab, Cluster} {
			n := p.n(1000)
			if env == PlanetLab {
				n = p.n(400)
			}
			cfgs = append(cfgs, Fig7Config{Seed: p.Seed, N: n, Env: env, Exchanges: p.count(1500),
				Warmup: p.dur(10 * time.Minute), MaxRun: p.dur(30 * time.Minute), Parallel: p.Parallel})
		}
		res, err := Fig7(cfgs)
		return report(res, err, PrintFig7, Fig7ShapeCheck)
	}},
	{"table2", true, 0.05, func(p Params) (Report, error) {
		res, err := Table2(Table2Config{Seed: p.Seed, N: p.n(1000), Warmup: p.dur(10 * time.Minute)})
		return report(res, err, PrintTable2, Table2ShapeCheck)
	}},
	{"fig8", true, 0.15, func(p Params) (Report, error) {
		groups := []int{1, 2, 4, 8, 16, 32}
		if p.Scale < 0.5 {
			groups = groups[:4]
		}
		rows, err := Fig8(Fig8Config{Seed: p.Seed, N: p.n(400), Groups: p.n(120), GroupsPerNode: groups,
			Warmup: p.dur(10 * time.Minute), Measure: p.dur(10 * time.Minute), Parallel: p.Parallel})
		return report(rows, err, PrintFig8, Fig8ShapeCheck)
	}},
	{"fig9", true, 0.05, func(p Params) (Report, error) {
		res, err := Fig9(Fig9Config{Seed: p.Seed, N: p.n(400), GroupSize: p.n(60), Queries: p.count(350),
			Warmup: p.dur(12 * time.Minute), RingTime: p.dur(10 * time.Minute)})
		return report(res, err, PrintFig9, Fig9ShapeCheck)
	}},
	{"circuit", true, 0.05, func(p Params) (Report, error) {
		res, err := Circuit(CircuitConfig{Seed: p.Seed, N: p.n(300)})
		return report(res, err, PrintCircuit, CircuitShapeCheck)
	}},
	{"suites", true, 0.05, func(p Params) (Report, error) {
		res, err := Suites(SuitesConfig{Seed: p.Seed, N: p.n(300)})
		return report(res, err, PrintSuites, SuitesShapeCheck)
	}},
	{"transfer", true, 0.05, func(p Params) (Report, error) {
		res, err := Transfer(TransferConfig{Seed: p.Seed, N: p.n(300)})
		return report(res, err, PrintTransfer, TransferShapeCheck)
	}},
	{"pubsub", true, 0.05, func(p Params) (Report, error) {
		res, err := PubSub(PubSubConfig{Seed: p.Seed, N: p.n(160)})
		return report(res, err, PrintPubSub, PubSubShapeCheck)
	}},
	{"ablate", false, 0.05, func(p Params) (Report, error) {
		rows, err := Ablations(AblateConfig{Seed: p.Seed, N: p.n(300),
			Warmup: p.dur(10 * time.Minute), Measure: p.dur(8 * time.Minute), Parallel: p.Parallel})
		return report(rows, err, PrintAblations, AblationShapeCheck)
	}},
	{"scale", false, 0, func(p Params) (Report, error) {
		// Sized off its own 100k-node, 2-minute baseline and floored at
		// 30 s rather than 4 minutes: small scales keep the smoke run
		// cheap, and Nodes/Virtual pin either dimension directly.
		cfg := ScaleConfig{Seed: p.Seed, N: p.Nodes, Shards: p.Shards, Runtime: p.Virtual, Env: PlanetLab}
		if cfg.N == 0 {
			cfg.N = p.n(100_000)
		}
		if cfg.Runtime == 0 {
			cfg.Runtime = scaled(p, 2*time.Minute, 30*time.Second)
		}
		if p.Progress != nil {
			cfg.Rollup = func(ru ScaleRollup) {
				fmt.Fprintf(p.Progress, "\rscale: %v / %v virtual, %d events in %d windows",
					ru.Now.Round(time.Second), ru.Total, ru.Events, ru.Windows)
			}
			defer fmt.Fprintln(p.Progress)
		}
		res, err := Scale(cfg)
		return report(res, err, PrintScale, ScaleShapeCheck)
	}},
}

// Experiments returns the table in usage order.
func Experiments() []Experiment { return append([]Experiment(nil), experiments...) }

// Select resolves a command-line name: one experiment, or "all" for the
// InAll entries in table order.
func Select(name string) ([]Experiment, error) {
	var sel []Experiment
	for _, e := range experiments {
		if e.Name == name || (name == "all" && e.InAll) {
			sel = append(sel, e)
		}
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("unknown experiment %q", name)
	}
	return sel, nil
}
