package exp

import (
	"fmt"
	"io"
	"time"

	"whisper/internal/identity"
	"whisper/internal/parallel"
	"whisper/internal/ppss"
	"whisper/internal/sim"
	"whisper/internal/stats"
	"whisper/internal/wcl"
)

// Fig8Config parameterizes the multi-group bandwidth experiment (§V-F):
// 400 nodes on the PlanetLab model, 120 private groups (each P-node
// creates and leads one), with the number of subscriptions per node
// swept logarithmically from 1 to 32.
type Fig8Config struct {
	Seed          int64
	N             int   // paper: 400
	Groups        int   // paper: 120
	GroupsPerNode []int // paper: 1,2,4,8,16,32
	Warmup        time.Duration
	Measure       time.Duration
	PPSS          ppss.Config
	// Parallel bounds the worker pool running the independent
	// subscriptions-per-node runs (<= 0: one worker per CPU; 1:
	// sequential).
	Parallel int
}

func (c Fig8Config) withDefaults() Fig8Config {
	if c.N == 0 {
		c.N = 400
	}
	if c.Groups == 0 {
		c.Groups = 120
	}
	if c.GroupsPerNode == nil {
		c.GroupsPerNode = []int{1, 2, 4, 8, 16, 32}
	}
	if c.Warmup == 0 {
		c.Warmup = 10 * time.Minute
	}
	if c.Measure == 0 {
		c.Measure = 10 * time.Minute
	}
	return c
}

// Fig8Row is one x-position of the figure: the stacked percentiles of
// per-node bandwidth for one subscription count.
type Fig8Row struct {
	GroupsPerNode  int
	PUp, PDown     stats.Stack // KB/s per P-node
	NUp, NDown     stats.Stack // KB/s per N-node
	MeanSubscribed float64     // achieved subscriptions per node
}

// Fig8 sweeps the number of groups per node, one worker per count.
func Fig8(cfg Fig8Config) ([]Fig8Row, error) {
	cfg = cfg.withDefaults()
	workers := parallel.Workers(cfg.Parallel)
	return parallel.Map(workers, len(cfg.GroupsPerNode), func(i int) (Fig8Row, error) {
		return fig8Run(cfg, cfg.GroupsPerNode[i], keyPool.View(i))
	})
}

func fig8Run(cfg Fig8Config, groupsPerNode int, pool *identity.Pool) (Fig8Row, error) {
	w, err := sim.NewWorld(sim.Options{
		Seed:     cfg.Seed,
		N:        cfg.N,
		NATRatio: 0.7,
		Model:    PlanetLab.Model(),
		KeyPool:  pool,
		WCL:      &wcl.Config{MinPublic: 3},
		PPSS:     &cfg.PPSS,
		Obs:      worldObs(fmt.Sprintf("fig8/groups=%d", groupsPerNode)),
	})
	if err != nil {
		return Fig8Row{}, err
	}
	startGroups(w, cfg.Groups, groupsPerNode, cfg.Warmup)
	w.ResetMeters()
	w.Sim.RunFor(cfg.Measure)

	pUp, pDown, nUp, nDown := classBandwidth(w, cfg.Measure.Seconds())
	subs := 0
	for _, n := range w.Live() {
		if n.PPSS != nil {
			subs += len(n.PPSS.Instances())
		}
	}
	return Fig8Row{
		GroupsPerNode:  groupsPerNode,
		PUp:            stats.StackOf(pUp),
		PDown:          stats.StackOf(pDown),
		NUp:            stats.StackOf(nUp),
		NDown:          stats.StackOf(nDown),
		MeanSubscribed: float64(subs) / float64(len(w.Live())),
	}, nil
}

// PrintFig8 renders the stacked-percentile series.
func PrintFig8(out io.Writer, rows []Fig8Row) {
	fmt.Fprintln(out, "== Figure 8: bandwidth vs. number of private groups per node (KB/s, stacked percentiles) ==")
	tb := stats.NewTable("groups/node", "class dir", "p5", "p25", "p50", "p75", "p90")
	for _, r := range rows {
		add := func(label string, s stats.Stack) {
			tb.Row(r.GroupsPerNode, label,
				fmt.Sprintf("%.3f", s.P5), fmt.Sprintf("%.3f", s.P25), fmt.Sprintf("%.3f", s.P50),
				fmt.Sprintf("%.3f", s.P75), fmt.Sprintf("%.3f", s.P90))
		}
		add("P-up", r.PUp)
		add("P-down", r.PDown)
		add("N-up", r.NUp)
		add("N-down", r.NDown)
	}
	fmt.Fprint(out, tb.String())
}

// Fig8ShapeCheck verifies the qualitative claims: bandwidth grows
// roughly linearly with subscriptions and P-nodes carry more load than
// N-nodes.
func Fig8ShapeCheck(rows []Fig8Row) []string {
	var bad []string
	if len(rows) < 2 {
		return []string{"need at least two subscription counts"}
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].NUp.P50 < rows[i-1].NUp.P50 {
			bad = append(bad, fmt.Sprintf("N-node upload median decreased from %d to %d groups/node",
				rows[i-1].GroupsPerNode, rows[i].GroupsPerNode))
		}
	}
	first, last := rows[0], rows[len(rows)-1]
	factor := float64(last.GroupsPerNode) / float64(first.GroupsPerNode)
	if last.NUp.P50 < first.NUp.P50*factor/4 {
		bad = append(bad, "growth with subscriptions is far from linear")
	}
	for _, r := range rows {
		if r.PUp.P50+r.PDown.P50 < r.NUp.P50+r.NDown.P50 {
			bad = append(bad, fmt.Sprintf("%d groups/node: P-nodes carry less than N-nodes", r.GroupsPerNode))
		}
	}
	return bad
}
