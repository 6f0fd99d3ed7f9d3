package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so a spread
// computed here is the one the driver computes. xs needs two values.
func quartiles(xs []float64) (q [3]float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// spread is the interquartile range of xs as a share of its median; a
// single run has none.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q := quartiles(xs)
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / q[1]
}

func readLedger(path string) (map[string][]*runResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var led ledger
	if err := json.Unmarshal(data, &led); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	plain := make(map[string][]*runResult)
	for _, r := range led.Runs {
		if !r.Trace {
			plain[r.Workload] = append(plain[r.Workload], r)
		}
	}
	return plain, nil
}

// compareMain prints one row per (workload, end-to-end metric): both
// medians, how much worse the new one is, and the verdict against the
// metric's bound. A metric whose own run-to-run spread (in either
// input) exceeds its bound cannot be called unchanged: it reads
// "unresolved". Any metric worse by more than its bound fails the
// comparison.
func compareMain(args []string, out io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench -compare old.json new.json")
	}
	old, err := readLedger(args[0])
	if err != nil {
		return err
	}
	cur, err := readLedger(args[1])
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tworse by\tbound\tspread\tverdict\t")
	violations := 0
	for _, wl := range workloads {
		a, b := old[wl.Name], cur[wl.Name]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		for _, d := range endToEnd {
			va, vb := values(a, d.Name), values(b, d.Name)
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			sp := max(spread(va), spread(vb))
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "WORSE"
				violations++
			case sp > d.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.1f%%\t%.2f%%\t%s\t\n",
				wl.Name, d.Name, ma, mb, 100*worse, 100*d.Bound, 100*sp, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if violations > 0 {
		return fmt.Errorf("compare: %d metrics worse than their bound", violations)
	}
	return nil
}

func values(runs []*runResult, name string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		out = append(out, r.Metrics[name])
	}
	return out
}
