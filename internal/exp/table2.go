package exp

import (
	"fmt"
	"io"
	"time"

	"whisper/internal/crypt"
	"whisper/internal/ppss"
	"whisper/internal/sim"
	"whisper/internal/stats"
)

// table2Config is the crypto CPU-cost experiment (§V-E, Table II):
// average processor time per PPSS cycle spent on AES and RSA by N- and
// P-nodes, with one private group per 50 nodes.
type table2Config struct {
	Seed   int64
	N      int
	Cycles int // measured PPSS cycles
	Warmup time.Duration
	PPSS   ppss.Config
}

// newTable2 is the paper's setup: 1,000 nodes and a one-minute PPSS
// cycle, measured over 5 cycles.
func newTable2(p Params) table2Config {
	return table2Config{Seed: p.Seed, N: p.n(1000), Cycles: 5, Warmup: p.dur(10 * time.Minute), PPSS: ppss.Config{Cycle: time.Minute}}
}

// table2Row is one class row of Table II.
type table2Row struct {
	Class    string // "N-node" | "P-node"
	AES      time.Duration
	RSA      time.Duration
	Total    time.Duration
	AESPct   float64 // of one PPSS cycle
	RSAPct   float64
	TotalPct float64
	RSADecs  float64 // average RSA decryptions per cycle
}

// table2Result is the full table plus the derived ratios the paper
// quotes (P ≈ 2.13× N total cost, ≈ 4.12× RSA decryptions).
type table2Result struct {
	Rows         []table2Row
	TotalRatio   float64
	RSADecsRatio float64
}

// run runs the PPSS on the cluster testbed and accounts real
// wall-clock crypto cost per node per cycle.
func (cfg table2Config) run() (table2Result, error) {
	w, err := newWorld("table2", sim.Options{Seed: cfg.Seed, N: cfg.N, PPSS: &cfg.PPSS})
	if err != nil {
		return table2Result{}, err
	}
	startGroups(w, cfg.N/50, 1, cfg.Warmup)

	// Snapshot CPU meters, run the measurement window, subtract.
	nodes := w.Live()
	before := make([]crypt.CPUMeter, len(nodes))
	for i, n := range nodes {
		before[i] = *n.WCL.CPU()
	}
	w.Sim.RunFor(time.Duration(cfg.Cycles) * cfg.PPSS.Cycle)

	var res table2Result
	var classes [2]crypt.CPUMeter // N-nodes, P-nodes
	var counts [2]int
	for i, n := range nodes {
		c := 0
		if n.Public() {
			c = 1
		}
		classes[c].Add(cpuSince(*n.WCL.CPU(), before[i]))
		counts[c]++
	}
	row := func(c int, label string) table2Row {
		m := classes[c]
		n := float64(counts[c]) * float64(cfg.Cycles)
		if n == 0 {
			n = 1
		}
		r := table2Row{
			Class:   label,
			AES:     time.Duration(float64(m.AES) / n),
			RSA:     time.Duration(float64(m.RSA) / n),
			RSADecs: float64(m.RSADecs) / n,
		}
		r.Total = r.AES + r.RSA
		cyc := float64(cfg.PPSS.Cycle)
		r.AESPct = 100 * float64(r.AES) / cyc
		r.RSAPct = 100 * float64(r.RSA) / cyc
		r.TotalPct = 100 * float64(r.Total) / cyc
		return r
	}
	nRow := row(0, "N-node")
	pRow := row(1, "P-node")
	res.Rows = []table2Row{nRow, pRow}
	if nRow.Total > 0 {
		res.TotalRatio = float64(pRow.Total) / float64(nRow.Total)
	}
	if nRow.RSADecs > 0 {
		res.RSADecsRatio = pRow.RSADecs / nRow.RSADecs
	}
	return res, nil
}

// print renders the virtual part of Table II: the RSA decryption
// ratio.
func (res table2Result) print(out io.Writer) {
	fmt.Fprintln(out, "== Table II: CPU time per PPSS cycle for AES and RSA ==")
	fmt.Fprintf(out, "P/N RSA decryptions ratio: %.2fx (paper: 4.12x)\n", res.RSADecsRatio)
}

// printHost renders Table II's rows, whose times are the host's.
func (res table2Result) printHost(out io.Writer) {
	tb := stats.NewTable("class", "AES", "RSA", "Total", "% of cycle", "RSA decs/cycle")
	for _, r := range res.Rows {
		tb.Row(r.Class,
			fmt.Sprintf("%.1f µs (%.4f%%)", float64(r.AES.Microseconds()), r.AESPct),
			fmt.Sprintf("%.2f ms (%.3f%%)", float64(r.RSA.Microseconds())/1000, r.RSAPct),
			fmt.Sprintf("%.2f ms", float64(r.Total.Microseconds())/1000),
			fmt.Sprintf("%.3f%%", r.TotalPct),
			fmt.Sprintf("%.1f", r.RSADecs))
	}
	fmt.Fprint(out, tb.String())
	fmt.Fprintf(out, "P/N total CPU ratio: %.2fx (paper: 2.13x)\n", res.TotalRatio)
}

// check verifies the qualitative claims: RSA dominates AES by orders
// of magnitude, total cost is a small fraction of the cycle, and
// P-nodes work harder than N-nodes (they are mixes more often).
func (res table2Result) check() []string {
	var bad []string
	for _, r := range res.Rows {
		if r.RSA < 10*r.AES {
			bad = append(bad, fmt.Sprintf("%s: RSA (%v) does not dominate AES (%v)", r.Class, r.RSA, r.AES))
		}
		if r.TotalPct > 5 {
			bad = append(bad, fmt.Sprintf("%s: crypto consumes %.1f%% of a cycle (paper: <1%%)", r.Class, r.TotalPct))
		}
	}
	if res.TotalRatio < 1.1 {
		bad = append(bad, fmt.Sprintf("P/N total ratio %.2f: P-nodes not busier than N-nodes", res.TotalRatio))
	}
	if res.RSADecsRatio < 1.2 {
		bad = append(bad, fmt.Sprintf("P/N RSA-decrypt ratio %.2f: P-nodes not acting as mixes more often", res.RSADecsRatio))
	}
	return bad
}
