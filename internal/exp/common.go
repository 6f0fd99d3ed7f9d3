// Package exp reproduces every table and figure of the paper's
// evaluation (§V). Each experiment has a Config with the paper's
// parameters as defaults, a Run function returning structured results,
// and a Print function emitting the same rows/series the paper reports.
// One table (table.go) maps each experiment name to a run at a given
// scale; the whisper-exp command and the root BenchmarkExperiments both
// drive it.
package exp

import (
	"fmt"
	"io"
	"time"

	"whisper/internal/identity"
	"whisper/internal/netem"
	"whisper/internal/obs"
	"whisper/internal/ppss"
	"whisper/internal/sim"
	"whisper/internal/stats"
)

// Env selects the emulated testbed of §V-A.
type Env int

const (
	// Cluster is the 1 Gbps switched LAN testbed.
	Cluster Env = iota
	// PlanetLab is the global-scale, loaded testbed.
	PlanetLab
)

func (e Env) String() string {
	if e == PlanetLab {
		return "planetlab"
	}
	return "cluster"
}

// Model returns the latency model for the environment.
func (e Env) Model() netem.LatencyModel {
	if e == PlanetLab {
		return netem.DefaultPlanetLab()
	}
	return netem.Cluster{}
}

// keyPool caches a process-wide pool so repeated experiments do not pay
// RSA key generation each time.
var keyPool = identity.TestPool(64)

// ObsRoot, when non-nil, parents the metric instruments of every
// experiment world; whisper-exp points it at a registry scope when
// -metrics-out is set. Nil (the default) runs experiments unobserved,
// which the fig5 golden test pins as byte-identical.
var ObsRoot *obs.Scope

// worldObs derives the scope for one named run (nil when observability
// is off). The registry is concurrency-safe, so parallel runs share it;
// the run label keeps their node instruments apart.
func worldObs(run string) *obs.Scope { return ObsRoot.With("run", run) }

// groupSet tracks the private groups of an experiment world.
type groupSet struct {
	w       *sim.World
	names   []string
	leaders []*ppss.Instance
	members map[ppss.GroupID][]*sim.Node
}

// startGroups starts w, runs the 4-minute public underlay, forms the
// private groups and lets them converge until warmup.
func startGroups(w *sim.World, count, groupsPerNode int, warmup time.Duration) *groupSet {
	w.StartAll()
	w.Sim.RunUntil(4 * time.Minute)
	gs := formGroups(w, count, groupsPerNode)
	w.Sim.RunUntil(warmup)
	return gs
}

// formGroups creates count groups led by distinct nodes (preferring
// P-nodes, like the paper's Fig 8 setup) and subscribes each remaining
// node to groupsPerNode random groups. Joins are retried, as a user
// re-requesting an invitation would.
func formGroups(w *sim.World, count, groupsPerNode int) *groupSet {
	gs := &groupSet{w: w, members: make(map[ppss.GroupID][]*sim.Node)}
	leaders := w.LivePublics()
	if len(leaders) < count {
		leaders = w.Live()
	}
	for i := 0; i < count; i++ {
		name := fmt.Sprintf("group-%d", i)
		inst, err := leaders[i%len(leaders)].PPSS.CreateGroup(name)
		if err != nil {
			continue
		}
		gs.names = append(gs.names, name)
		gs.leaders = append(gs.leaders, inst)
		gs.members[inst.Group()] = append(gs.members[inst.Group()], leaders[i%len(leaders)])
	}
	if len(gs.names) == 0 {
		return gs // zero groups requested (tiny -scale runs)
	}
	rng := w.Sim.Rand()
	for _, n := range w.Live() {
		if n.PPSS == nil || len(n.PPSS.Instances()) > 0 {
			continue // leaders already belong to their group
		}
		for g := 0; g < groupsPerNode; g++ {
			gi := rng.Intn(len(gs.names))
			gs.join(n, gi, 1)
			w.Sim.RunFor(time.Second)
		}
	}
	return gs
}

// join subscribes node to group gi with retries.
func (gs *groupSet) join(node *sim.Node, gi, attempt int) {
	leader := gs.leaders[gi]
	name := gs.names[gi]
	accr, entry, err := leader.Invite(node.ID())
	if err != nil {
		return
	}
	node.PPSS.Join(name, accr, entry, func(inst *ppss.Instance, err error) {
		if err != nil {
			if attempt < 3 && !node.Nylon.Stopped() {
				gs.join(node, gi, attempt+1)
			}
			return
		}
		g := inst.Group()
		gs.members[g] = append(gs.members[g], node)
	})
}

// JoinRandom subscribes a (churn-arrived) node to one random group.
func (gs *groupSet) JoinRandom(node *sim.Node) {
	if len(gs.names) == 0 {
		return
	}
	gs.join(node, gs.w.Sim.Rand().Intn(len(gs.names)), 1)
}

// classBandwidth returns every live node's metered upload and download
// KB divided by per, split into P-node and N-node samples.
func classBandwidth(w *sim.World, per float64) (pUp, pDown, nUp, nDown []float64) {
	for _, n := range w.Live() {
		m := n.Nylon.Meter()
		up, down := m.UpKB()/per, m.DownKB()/per
		if n.Public() {
			pUp, pDown = append(pUp, up), append(pDown, down)
		} else {
			nUp, nDown = append(nUp, up), append(nDown, down)
		}
	}
	return pUp, pDown, nUp, nDown
}

// printCDF emits a sampled CDF as "value fraction" rows.
func printCDF(w io.Writer, label string, cdf []stats.CDFPoint, points int, format string) {
	fmt.Fprintf(w, "# CDF: %s\n", label)
	for _, p := range stats.SampleCDF(cdf, points) {
		fmt.Fprintf(w, format+" %.4f\n", p.Value, p.Fraction)
	}
}

// durationsToSeconds converts a duration sample to float seconds.
func durationsToSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
