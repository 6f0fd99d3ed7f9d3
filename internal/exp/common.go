// Package exp reproduces every table and figure of the paper's
// evaluation (§V) and the studies beyond it. Each experiment is
// declared once, in its own file: a config, a constructor that builds
// the whole config from Params and is the one place the paper's
// parameters are stated, a run method, and a result that prints its
// rows and checks the paper's qualitative findings on them. The table
// (table.go) maps each experiment name to its constructor; the
// whisper-exp command and the root BenchmarkExperiments both drive it.
package exp

import (
	"cmp"
	"fmt"
	"io"
	"time"

	"whisper/internal/crypt"
	"whisper/internal/identity"
	"whisper/internal/netem"
	"whisper/internal/obs"
	"whisper/internal/parallel"
	"whisper/internal/ppss"
	"whisper/internal/sim"
	"whisper/internal/stats"
	"whisper/internal/wcl"
)

// env selects the emulated testbed of §V-A.
type env int

const (
	cluster   env = iota // the 1 Gbps switched LAN testbed
	planetLab            // the global-scale, loaded testbed
)

func (e env) String() string {
	if e == planetLab {
		return "planetlab"
	}
	return "cluster"
}

func (e env) model() netem.LatencyModel {
	if e == planetLab {
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

// newWorld builds the world of one named run from o plus what every
// run shares (§V-A): 70 % N-nodes unless o sets another share, keys
// from the process pool unless o brings its own, and the run's metric
// scope. A world with a PPSS runs it over the paper's WCL, Π = 3
// helpers per path, unless o sets another WCL. The registry is
// concurrency-safe, so parallel runs share it; the run label keeps
// their node instruments apart.
func newWorld(run string, o sim.Options) (*sim.World, error) {
	o.NATRatio = cmp.Or(o.NATRatio, 0.7)
	o.KeyPool = cmp.Or(o.KeyPool, keyPool)
	if o.PPSS != nil && o.WCL == nil {
		o.WCL = &wcl.Config{MinPublic: 3}
	}
	o.Obs = ObsRoot.With("run", run)
	return sim.NewWorld(o)
}

// sweep runs f once per x on parallel.Workers(workers) workers, each
// run with its own view of the key pool, and returns the results in
// the order of xs.
func sweep[X, R any](workers int, xs []X, f func(X, *identity.Pool) (R, error)) ([]R, error) {
	return parallel.Map(parallel.Workers(workers), len(xs), func(i int) (R, error) { return f(xs[i], keyPool.View(i)) })
}

// groupSet tracks the private groups of an experiment world.
type groupSet struct {
	w       *sim.World
	names   []string
	leaders []*ppss.Instance
}

// startGroups starts w, runs the 4-minute public underlay, then creates
// count groups led by distinct nodes (preferring P-nodes, like the
// paper's Fig 8 setup), subscribes each remaining node to groupsPerNode
// random groups, and lets them converge until warmup.
func startGroups(w *sim.World, count, groupsPerNode int, warmup time.Duration) *groupSet {
	w.StartAll()
	w.Sim.RunUntil(4 * time.Minute)
	gs := &groupSet{w: w}
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
	}
	if len(gs.names) > 0 { // tiny -scale runs may ask for zero groups
		rng := w.Sim.Rand()
		for _, n := range w.Live() {
			if n.PPSS == nil || len(n.PPSS.Instances()) > 0 {
				continue // leaders already belong to their group
			}
			for g := 0; g < groupsPerNode; g++ {
				gi := rng.Intn(len(gs.names))
				join(gs.leaders[gi], gs.names[gi], n, 3)
				w.Sim.RunFor(time.Second)
			}
		}
	}
	w.Sim.RunUntil(warmup)
	return gs
}

// joinRandom subscribes a (churn-arrived) node to one random group.
func (gs *groupSet) joinRandom(node *sim.Node) {
	if len(gs.names) == 0 {
		return
	}
	gi := gs.w.Sim.Rand().Intn(len(gs.names))
	join(gs.leaders[gi], gs.names[gi], node, 3)
}

// join has leader invite node into its group, name, and retries a
// failed join while tries remain and node is alive, as a user
// re-requesting an invitation would.
func join(leader *ppss.Instance, name string, node *sim.Node, tries int) {
	accr, entry, err := leader.Invite(node.ID())
	if err != nil {
		return
	}
	node.PPSS.Join(name, accr, entry, func(_ *ppss.Instance, err error) {
		if err != nil && tries > 1 && !node.Nylon.Stopped() {
			join(leader, name, node, tries-1)
		}
	})
}

// viewPublics counts the P-nodes in n's PSS view.
func viewPublics(n *sim.Node) int {
	pubs := 0
	for _, e := range n.Nylon.View() {
		if e.Val.Public {
			pubs++
		}
	}
	return pubs
}

// recordRTTs appends the round-trip time of every PPSS view exchange
// the groups of w's live nodes complete from now on to rtts.
func recordRTTs(w *sim.World, rtts *[]time.Duration) {
	for _, n := range w.Live() {
		for _, inst := range n.PPSS.Instances() {
			inst.OnExchangeRTT = func(rtt time.Duration) { *rtts = append(*rtts, rtt) }
		}
	}
}

// cpuSince is the crypto work meter m counted since the snapshot before.
func cpuSince(m, before crypt.CPUMeter) crypt.CPUMeter {
	return crypt.CPUMeter{
		AES: m.AES - before.AES, RSA: m.RSA - before.RSA, ECC: m.ECC - before.ECC,
		AESOps: m.AESOps - before.AESOps, RSAEncs: m.RSAEncs - before.RSAEncs, RSADecs: m.RSADecs - before.RSADecs,
		Signs: m.Signs - before.Signs, Verifys: m.Verifys - before.Verifys,
		ECCEncs: m.ECCEncs - before.ECCEncs, ECCDecs: m.ECCDecs - before.ECCDecs,
		ECCSigns: m.ECCSigns - before.ECCSigns, ECCVerifys: m.ECCVerifys - before.ECCVerifys,
	}
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
