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
// of 1 keeps a tiny -scale run sampling something: at 0 Fig 7 would
// sample no exchange and Fig 9 route no query.
func (p Params) count(paper int) int { return scaled(p, paper, 1) }

// dur scales a warm-up or measurement window (floor 4 minutes).
func (p Params) dur(paper time.Duration) time.Duration { return scaled(p, paper, 4*time.Minute) }

// Report is what one experiment hands back to the runner.
type Report struct {
	Text        string   // the rows and series the experiment prints; the same on every run of one seed
	Host        string   // rows timed on the host (CPU time, wall clock, heap); they vary run to run
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

// result is what an experiment's run returns: it prints its virtual
// rows and checks the paper's qualitative findings on them.
type result interface {
	print(io.Writer)
	check() []string
}

// hostPrinter is a result with host-timed rows, which print apart so
// that the virtual text stays comparable byte for byte.
type hostPrinter interface{ printHost(io.Writer) }

// fingerprinter is a result carrying a determinism digest; its print
// method ends with the digest's "fingerprint:" line.
type fingerprinter interface{ fingerprint() string }

// report renders res and checks its shape.
func report(res result, err error) (Report, error) {
	if err != nil {
		return Report{}, err
	}
	var text, host strings.Builder
	res.print(&text)
	if h, ok := res.(hostPrinter); ok {
		h.printHost(&host)
	}
	rep := Report{Text: text.String(), Host: host.String(), Violations: res.check()}
	if f, ok := res.(fingerprinter); ok {
		rep.Fingerprint = f.fingerprint()
	}
	return rep, nil
}

// experiments is the table, in usage order; `all` runs the InAll
// entries in this order. Each constructor states its experiment's
// paper-scale parameters.
var experiments = []Experiment{
	{"fig5", true, 0.05, func(p Params) (Report, error) { return report(newFig5(p).run()) }},
	{"fig6", true, 0.05, func(p Params) (Report, error) { return report(newFig6(p).run()) }},
	{"table1", true, 0.05, func(p Params) (Report, error) { return report(newTable1(p).run()) }},
	{"fig7", true, 0.15, func(p Params) (Report, error) { return report(newFig7(p).run()) }},
	{"table2", true, 0.05, func(p Params) (Report, error) { return report(newTable2(p).run()) }},
	{"fig8", true, 0.15, func(p Params) (Report, error) { return report(newFig8(p).run()) }},
	{"fig9", true, 0.05, func(p Params) (Report, error) { return report(newFig9(p).run()) }},
	{"circuit", true, 0.05, func(p Params) (Report, error) { return report(newCircuit(p).run()) }},
	{"suites", true, 0.05, func(p Params) (Report, error) { return report(newSuites(p).run()) }},
	{"transfer", true, 0.05, func(p Params) (Report, error) { return report(newTransfer(p).run()) }},
	{"pubsub", true, 0.05, func(p Params) (Report, error) { return report(newPubSub(p).run()) }},
	{"ablate", false, 0.05, func(p Params) (Report, error) { return report(newAblate(p).run()) }},
	{"scale", false, 0, func(p Params) (Report, error) { return report(newScale(p).run()) }},
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
