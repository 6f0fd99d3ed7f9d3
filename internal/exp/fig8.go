package exp

import (
	"fmt"
	"io"
	"time"

	"whisper/internal/identity"
	"whisper/internal/ppss"
	"whisper/internal/sim"
	"whisper/internal/stats"
)

// fig8Config is the multi-group bandwidth experiment (§V-F): nodes on
// the PlanetLab model, private groups each led by a P-node, and the
// number of subscriptions per node swept logarithmically.
type fig8Config struct {
	Seed          int64
	N             int
	Groups        int
	GroupsPerNode []int
	Warmup        time.Duration
	Measure       time.Duration
	PPSS          ppss.Config
	Parallel      int // bounds the worker pool running the independent subscription counts (<= 0: one per CPU; 1: sequential)
}

// newFig8 is the paper's setup: 400 nodes, 120 groups, 1 to 32
// subscriptions per node; below half scale the sweep stops at 8.
func newFig8(p Params) fig8Config {
	perNode := []int{1, 2, 4, 8, 16, 32}
	if p.Scale < 0.5 {
		perNode = perNode[:4]
	}
	return fig8Config{Seed: p.Seed, N: p.n(400), Groups: p.n(120), GroupsPerNode: perNode,
		Warmup: p.dur(10 * time.Minute), Measure: p.dur(10 * time.Minute), Parallel: p.Parallel}
}

// fig8Row is one x-position of the figure: the stacked percentiles of
// per-node bandwidth for one subscription count.
type fig8Row struct {
	GroupsPerNode  int
	PUp, PDown     stats.Stack // KB/s per P-node
	NUp, NDown     stats.Stack // KB/s per N-node
	MeanSubscribed float64     // achieved subscriptions per node
}

type fig8Rows []fig8Row

// run sweeps the number of groups per node, one worker per count.
func (cfg fig8Config) run() (fig8Rows, error) {
	return sweep(cfg.Parallel, cfg.GroupsPerNode, cfg.runCount)
}

func (cfg fig8Config) runCount(groupsPerNode int, pool *identity.Pool) (fig8Row, error) {
	w, err := newWorld(fmt.Sprintf("fig8/groups=%d", groupsPerNode), sim.Options{
		Seed:    cfg.Seed,
		N:       cfg.N,
		Model:   planetLab.model(),
		KeyPool: pool,
		PPSS:    &cfg.PPSS,
	})
	if err != nil {
		return fig8Row{}, err
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
	return fig8Row{
		GroupsPerNode:  groupsPerNode,
		PUp:            stats.StackOf(pUp),
		PDown:          stats.StackOf(pDown),
		NUp:            stats.StackOf(nUp),
		NDown:          stats.StackOf(nDown),
		MeanSubscribed: float64(subs) / float64(len(w.Live())),
	}, nil
}

// print renders the stacked-percentile series.
func (rows fig8Rows) print(out io.Writer) {
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

// check verifies the qualitative claims: bandwidth grows roughly
// linearly with subscriptions and P-nodes carry more load than N-nodes.
func (rows fig8Rows) check() []string {
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
