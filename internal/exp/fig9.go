package exp

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"whisper/internal/ppss"
	"whisper/internal/sim"
	"whisper/internal/stats"
	"whisper/internal/tchord"
)

// fig9Config is the private T-Chord experiment (§V-G): a private group
// inside a cluster network bootstraps a Chord ring with T-Chord, then
// routes random queries; the figure is the CDF of their end-to-end
// delays.
type fig9Config struct {
	Seed      int64
	N         int
	GroupSize int
	Queries   int
	Warmup    time.Duration // PPSS convergence before T-Chord starts
	RingTime  time.Duration // T-Chord convergence time
	PPSS      ppss.Config
}

// newFig9 is the paper's setup: a 60-node group in 400 nodes, routing
// 350 queries.
func newFig9(p Params) fig9Config {
	return fig9Config{Seed: p.Seed, N: p.n(400), GroupSize: p.n(60), Queries: p.count(350),
		Warmup: p.dur(12 * time.Minute), RingTime: p.dur(10 * time.Minute)}
}

// fig9Result holds the routing-delay distribution.
type fig9Result struct {
	DelayCDF    []stats.CDFPoint // seconds
	Completed   int
	Failed      int
	MedianDelay float64
	MaxHops     int
	RingCorrect int // nodes with the true successor
	RingSize    int
}

// run builds the private index and routes the queries.
func (cfg fig9Config) run() (fig9Result, error) {
	w, err := newWorld("fig9", sim.Options{Seed: cfg.Seed, N: cfg.N, PPSS: &cfg.PPSS})
	if err != nil {
		return fig9Result{}, err
	}
	w.StartAll()
	w.Sim.RunUntil(4 * time.Minute)

	// One private group of GroupSize members.
	members := w.Live()[:cfg.GroupSize]
	leader, err := members[0].PPSS.CreateGroup("private-index")
	if err != nil {
		return fig9Result{}, err
	}
	for _, m := range members[1:] {
		join(leader, "private-index", m, 3)
		w.Sim.RunFor(2 * time.Second)
	}
	w.Sim.RunUntil(cfg.Warmup)

	tcfg := tchord.Config{PinRing: true}
	var ring []*tchord.Node
	for _, m := range members {
		inst := m.PPSS.Instance(leader.Group())
		if inst == nil {
			continue
		}
		node := tchord.New(inst, tcfg)
		node.Start()
		ring = append(ring, node)
	}
	w.Sim.RunFor(cfg.RingTime)

	// Route the queries from random members to random keys.
	var res fig9Result
	res.RingSize = len(ring)
	var delays []float64
	rng := w.Sim.Rand()
	for i := 0; i < cfg.Queries; i++ {
		src := ring[rng.Intn(len(ring))]
		key := tchord.KeyID(fmt.Sprintf("query-%d", i))
		start := w.Sim.Now()
		src.Lookup(key, func(r tchord.LookupResult) {
			if r.Err != nil {
				res.Failed++
				return
			}
			res.Completed++
			delays = append(delays, (w.Sim.Now() - start).Seconds())
			if r.Hops > res.MaxHops {
				res.MaxHops = r.Hops
			}
		})
		w.Sim.RunFor(2 * time.Second)
	}
	w.Sim.RunFor(2 * time.Minute)

	res.DelayCDF = stats.CDF(delays)
	res.MedianDelay = stats.Percentile(delays, 50)
	res.RingCorrect = ringCorrectness(ring)
	return res, nil
}

// ringCorrectness counts nodes whose successor matches the true ring.
func ringCorrectness(ring []*tchord.Node) int {
	ids := make([]tchord.ChordID, len(ring))
	for i, n := range ring {
		ids[i] = n.ID()
	}
	slices.Sort(ids)
	correct := 0
	for _, n := range ring {
		// The true successor is the smallest id above n's, wrapping.
		i := sort.Search(len(ids), func(i int) bool { return ids[i] > n.ID() }) % len(ids)
		if succ, ok := n.Successor(); ok && tchord.IDOf(succ.ID) == ids[i] {
			correct++
		}
	}
	return correct
}

// print renders the delay distribution.
func (res fig9Result) print(out io.Writer) {
	fmt.Fprintln(out, "== Figure 9: T-Chord routing delays in a private group ==")
	tb := stats.NewTable("metric", "value")
	tb.Row("ring size", res.RingSize)
	tb.Row("correct successors", fmt.Sprintf("%d/%d", res.RingCorrect, res.RingSize))
	tb.Row("queries completed", res.Completed)
	tb.Row("queries failed", res.Failed)
	tb.Row("median delay (s)", fmt.Sprintf("%.3f", res.MedianDelay))
	tb.Row("max hops", res.MaxHops)
	fmt.Fprint(out, tb.String())
	printCDF(out, "T-Chord routing delay (s)", res.DelayCDF, 14, "%.3f")
}

// check verifies the qualitative claims: queries overwhelmingly
// complete, the ring is (nearly) perfect, and the delay range spans from
// sub-second short routes to a small number of seconds for long ones.
func (res fig9Result) check() []string {
	var bad []string
	total := res.Completed + res.Failed
	if total == 0 {
		return []string{"no queries ran"}
	}
	if float64(res.Completed) < 0.9*float64(total) {
		bad = append(bad, fmt.Sprintf("only %d/%d queries completed", res.Completed, total))
	}
	if res.RingCorrect < res.RingSize*8/10 {
		bad = append(bad, fmt.Sprintf("ring only %d/%d correct", res.RingCorrect, res.RingSize))
	}
	if res.MedianDelay > 3 {
		bad = append(bad, fmt.Sprintf("median delay %.2fs outside the paper's regime (≤1.5s)", res.MedianDelay))
	}
	return bad
}
