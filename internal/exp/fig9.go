package exp

import (
	"fmt"
	"io"
	"time"

	"whisper/internal/ppss"
	"whisper/internal/sim"
	"whisper/internal/stats"
	"whisper/internal/tchord"
	"whisper/internal/wcl"
)

// Fig9Config parameterizes the private T-Chord experiment (§V-G): a
// 60-node private group inside a 400-node cluster network bootstraps a
// Chord ring with T-Chord, then routes 350 random queries; the figure
// is the CDF of their end-to-end delays.
type Fig9Config struct {
	Seed      int64
	N         int           // paper: 400
	GroupSize int           // paper: 60
	Queries   int           // paper: 350
	Warmup    time.Duration // PPSS convergence before T-Chord starts
	RingTime  time.Duration // T-Chord convergence time
	PPSS      ppss.Config
}

func (c Fig9Config) withDefaults() Fig9Config {
	if c.N == 0 {
		c.N = 400
	}
	if c.GroupSize == 0 {
		c.GroupSize = 60
	}
	if c.Queries == 0 {
		c.Queries = 350
	}
	if c.Warmup == 0 {
		c.Warmup = 12 * time.Minute
	}
	if c.RingTime == 0 {
		c.RingTime = 10 * time.Minute
	}
	return c
}

// Fig9Result holds the routing-delay distribution.
type Fig9Result struct {
	DelayCDF    []stats.CDFPoint // seconds
	Completed   int
	Failed      int
	MedianDelay float64
	MaxHops     int
	RingCorrect int // nodes with the true successor
	RingSize    int
}

// Fig9 builds the private index and routes the queries.
func Fig9(cfg Fig9Config) (Fig9Result, error) {
	cfg = cfg.withDefaults()
	w, err := sim.NewWorld(sim.Options{
		Seed:     cfg.Seed,
		N:        cfg.N,
		NATRatio: 0.7,
		KeyPool:  keyPool,
		WCL:      &wcl.Config{MinPublic: 3},
		PPSS:     &cfg.PPSS,
		Obs:      worldObs("fig9"),
	})
	if err != nil {
		return Fig9Result{}, err
	}
	w.StartAll()
	w.Sim.RunUntil(4 * time.Minute)

	// One private group of GroupSize members.
	members := w.Live()[:cfg.GroupSize]
	leader, err := members[0].PPSS.CreateGroup("private-index")
	if err != nil {
		return Fig9Result{}, err
	}
	g := ppss.GroupIDFromName("private-index")
	var joinFn func(n *sim.Node, attempt int)
	joinFn = func(n *sim.Node, attempt int) {
		accr, entry, err := leader.Invite(n.ID())
		if err != nil {
			return
		}
		n.PPSS.Join("private-index", accr, entry, func(_ *ppss.Instance, err error) {
			if err != nil && attempt < 3 {
				joinFn(n, attempt+1)
			}
		})
	}
	for _, m := range members[1:] {
		joinFn(m, 1)
		w.Sim.RunFor(2 * time.Second)
	}
	w.Sim.RunUntil(cfg.Warmup)

	tcfg := tchord.Config{PinRing: true}
	var ring []*tchord.Node
	for _, m := range members {
		inst := m.PPSS.Instance(g)
		if inst == nil {
			continue
		}
		node := tchord.New(inst, tcfg)
		node.Start()
		ring = append(ring, node)
	}
	w.Sim.RunFor(cfg.RingTime)

	// Route the queries from random members to random keys.
	var res Fig9Result
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
	// Successor of x = smallest id > x (wrapping).
	trueSucc := func(x tchord.ChordID) tchord.ChordID {
		var best tchord.ChordID
		found := false
		var min tchord.ChordID
		minSet := false
		for _, id := range ids {
			if !minSet || id < min {
				min, minSet = id, true
			}
			if id > x && (!found || id < best) {
				best, found = id, true
			}
		}
		if !found {
			return min
		}
		return best
	}
	correct := 0
	for _, n := range ring {
		succ, ok := n.Successor()
		if ok && tchord.IDOf(succ.ID) == trueSucc(n.ID()) {
			correct++
		}
	}
	return correct
}

// PrintFig9 renders the delay distribution.
func PrintFig9(out io.Writer, res Fig9Result) {
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

// Fig9ShapeCheck verifies the qualitative claims: queries overwhelmingly
// complete, the ring is (nearly) perfect, and the delay range spans from
// sub-second short routes to a small number of seconds for long ones.
func Fig9ShapeCheck(res Fig9Result) []string {
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
