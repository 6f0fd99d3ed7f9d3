package exp

import (
	"fmt"
	"io"
	"time"

	"whisper/internal/crypt"
	"whisper/internal/ppss"
	"whisper/internal/sim"
	"whisper/internal/stats"
	"whisper/internal/wcl"
)

// Table2Config parameterizes the crypto CPU-cost experiment (§V-E,
// Table II): average processor time per PPSS cycle spent on AES and RSA
// by N- and P-nodes.
type Table2Config struct {
	Seed   int64
	N      int // paper: 1,000
	Groups int // one group per ~50 nodes
	Cycles int // measured PPSS cycles (paper: one full network cycle)
	Warmup time.Duration
	PPSS   ppss.Config
}

func (c Table2Config) withDefaults() Table2Config {
	if c.N == 0 {
		c.N = 1000
	}
	if c.Groups == 0 {
		c.Groups = c.N / 50
	}
	if c.Cycles == 0 {
		c.Cycles = 5
	}
	if c.Warmup == 0 {
		c.Warmup = 10 * time.Minute
	}
	if c.PPSS.Cycle == 0 {
		c.PPSS.Cycle = time.Minute
	}
	return c
}

// Table2Row is one class row of Table II.
type Table2Row struct {
	Class    string // "N-node" | "P-node"
	AES      time.Duration
	RSA      time.Duration
	Total    time.Duration
	AESPct   float64 // of one PPSS cycle
	RSAPct   float64
	TotalPct float64
	RSADecs  float64 // average RSA decryptions per cycle
}

// Table2Result is the full table plus the derived ratios the paper
// quotes (P ≈ 2.13× N total cost, ≈ 4.12× RSA decryptions).
type Table2Result struct {
	Rows         []Table2Row
	Cycle        time.Duration
	TotalRatio   float64
	RSADecsRatio float64
}

// Table2 runs the PPSS on the cluster testbed and accounts real
// wall-clock crypto cost per node per cycle.
func Table2(cfg Table2Config) (Table2Result, error) {
	cfg = cfg.withDefaults()
	w, err := sim.NewWorld(sim.Options{
		Seed:     cfg.Seed,
		N:        cfg.N,
		NATRatio: 0.7,
		KeyPool:  keyPool,
		WCL:      &wcl.Config{MinPublic: 3},
		PPSS:     &cfg.PPSS,
		Obs:      worldObs("table2"),
	})
	if err != nil {
		return Table2Result{}, err
	}
	startGroups(w, cfg.Groups, 1, cfg.Warmup)

	// Snapshot CPU meters, run the measurement window, subtract.
	before := map[*sim.Node]crypt.CPUMeter{}
	for _, n := range w.Live() {
		if n.WCL != nil {
			before[n] = *n.WCL.CPU()
		}
	}
	window := time.Duration(cfg.Cycles) * cfg.PPSS.Cycle
	w.Sim.RunFor(window)

	var res Table2Result
	res.Cycle = cfg.PPSS.Cycle
	classes := map[bool][]crypt.CPUMeter{}
	for n, b := range before {
		if n.Nylon.Stopped() {
			continue
		}
		cur := *n.WCL.CPU()
		d := crypt.CPUMeter{
			AES:     cur.AES - b.AES,
			RSA:     cur.RSA - b.RSA,
			AESOps:  cur.AESOps - b.AESOps,
			RSADecs: cur.RSADecs - b.RSADecs,
		}
		classes[n.Public()] = append(classes[n.Public()], d)
	}
	row := func(public bool, label string) Table2Row {
		ms := classes[public]
		var aes, rsa time.Duration
		var decs uint64
		for _, m := range ms {
			aes += m.AES
			rsa += m.RSA
			decs += m.RSADecs
		}
		n := float64(len(ms)) * float64(cfg.Cycles)
		if n == 0 {
			n = 1
		}
		r := Table2Row{
			Class:   label,
			AES:     time.Duration(float64(aes) / n),
			RSA:     time.Duration(float64(rsa) / n),
			RSADecs: float64(decs) / n,
		}
		r.Total = r.AES + r.RSA
		cyc := float64(cfg.PPSS.Cycle)
		r.AESPct = 100 * float64(r.AES) / cyc
		r.RSAPct = 100 * float64(r.RSA) / cyc
		r.TotalPct = 100 * float64(r.Total) / cyc
		return r
	}
	nRow := row(false, "N-node")
	pRow := row(true, "P-node")
	res.Rows = []Table2Row{nRow, pRow}
	if nRow.Total > 0 {
		res.TotalRatio = float64(pRow.Total) / float64(nRow.Total)
	}
	if nRow.RSADecs > 0 {
		res.RSADecsRatio = pRow.RSADecs / nRow.RSADecs
	}
	return res, nil
}

// PrintTable2 renders Table II.
func PrintTable2(out io.Writer, res Table2Result) {
	fmt.Fprintln(out, "== Table II: CPU time per PPSS cycle for AES and RSA ==")
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
	fmt.Fprintf(out, "P/N RSA decryptions ratio: %.2fx (paper: 4.12x)\n", res.RSADecsRatio)
}

// Table2ShapeCheck verifies the qualitative claims: RSA dominates AES
// by orders of magnitude, total cost is a small fraction of the cycle,
// and P-nodes work harder than N-nodes (they are mixes more often).
func Table2ShapeCheck(res Table2Result) []string {
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
