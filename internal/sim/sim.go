// Package sim assembles complete WHISPER networks on the emulated
// substrate: it creates nodes with the paper's NAT distribution (70%
// behind NATs, evenly split across the four device types), wires the
// protocol stack, and provides the churn and measurement plumbing the
// experiment harness and the integration tests share.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"whisper/internal/core"
	"whisper/internal/crypt"
	"whisper/internal/graph"
	"whisper/internal/identity"
	"whisper/internal/nat"
	"whisper/internal/netem"
	"whisper/internal/nylon"
	"whisper/internal/obs"
	"whisper/internal/ppss"
	"whisper/internal/simnet"
	simtr "whisper/internal/transport/simnet"
	"whisper/internal/wcl"
)

// Options configures a World.
type Options struct {
	// Seed drives all randomness of the run.
	Seed int64
	// N is the initial node count.
	N int
	// NATRatio is the fraction of N-nodes (paper: 0.7). NAT types are
	// split evenly among the four emulated kinds.
	NATRatio float64
	// Model is the latency/loss model (default netem.Cluster{}).
	Model netem.LatencyModel
	// Faults, when non-nil, composes duplication, reordering, burst
	// loss and partitions on top of Model (see netem.FaultModel). Nil
	// keeps the network byte-identical to the pre-fault-layer world.
	Faults *netem.FaultModel
	// Nylon configures the PSS layer of every node.
	Nylon nylon.Config
	// Suite selects the crypto suite every node keys under (default
	// rsa2048). When KeyPool is provided its suite wins; otherwise the
	// generated pool uses this suite.
	Suite crypt.SuiteID
	// KeyPool provides identity keys; nil generates a fresh pool of
	// PoolSize keys at identity.DefaultKeyBits on Suite.
	KeyPool *identity.Pool
	// PoolSize is the size of the generated pool when KeyPool is nil
	// (default 64; sims share keys round-robin, see identity.Pool).
	PoolSize int
	// BootstrapPublics is how many random P-node descriptors seed each
	// node's view, emulating a tracker (default 3).
	BootstrapPublics int
	// NATLease overrides the NAT association lease (default
	// nat.DefaultLease).
	NATLease time.Duration
	// WCL, when non-nil, attaches a Whisper communication layer to
	// every node (core.NewStack forces Nylon key sampling on).
	WCL *wcl.Config
	// PPSS, when non-nil, attaches a private peer sampling router to
	// every node (requires WCL; core.NewStack implies a default WCL
	// config if WCL is nil).
	PPSS *ppss.Config
	// Obs, when non-nil, registers every node's instruments under it.
	// Single-shard worlds scope each node by a "node" label; sharded
	// worlds share one "shard"-labelled scope per shard, so instruments
	// roll up at write time instead of holding one scope per node. Nil
	// (the default) runs fully unobserved: the fig5 golden test pins
	// that this costs nothing.
	Obs *obs.Scope
	// Shards selects the engine: 1 (the default) runs the classic
	// single-threaded simulator, byte-identical to every previous
	// release at a fixed seed; >1 runs the sharded engine, partitioning
	// nodes round-robin across shards with conservative window
	// synchronization (see simnet.Sharded). Sharded worlds require a
	// latency model with a positive MinDelay bound and produce
	// different (but reproducible) event orders per shard count.
	Shards int
}

func (o Options) withDefaults() Options {
	if o.N == 0 {
		o.N = 100
	}
	if o.Model == nil {
		o.Model = netem.Cluster{}
	}
	if o.PoolSize == 0 {
		o.PoolSize = 64
	}
	if o.BootstrapPublics == 0 {
		o.BootstrapPublics = 3
	}
	if o.Shards == 0 {
		o.Shards = 1
	}
	return o
}

// Node bundles one simulated node's stack and bookkeeping.
type Node struct {
	Nylon *nylon.Node
	WCL   *wcl.WCL     // nil unless Options.WCL or Options.PPSS is set
	PPSS  *ppss.Router // nil unless Options.PPSS is set
	Dev   *nat.Device  // nil for P-nodes
	Type  nat.Type
	// Shard is the engine shard the node lives on (0 on single-shard
	// worlds).
	Shard int
	// Ext carries application state attached by StackBuilder users.
	Ext map[string]any
}

// ID returns the node's identifier.
func (n *Node) ID() identity.NodeID { return n.Nylon.ID() }

// Public reports whether the node is a P-node.
func (n *Node) Public() bool { return n.Type == nat.None }

// World is a running simulated network.
type World struct {
	Opts Options
	// Sim, Net and Rt are the single-shard engine, network and
	// transport. They are nil on sharded worlds (Opts.Shards > 1) —
	// use the World engine methods (Now, RunUntil, Schedule, …) or
	// Engine()/Fabric() instead.
	Sim *simnet.Sim
	Net *netem.Network
	// Rt is the transport adapter the stacks are wired through.
	Rt    *simtr.Transport
	Nodes []*Node

	eng    *simnet.Sharded // non-nil iff Opts.Shards > 1
	fabric *simtr.Fabric   // non-nil iff Opts.Shards > 1

	// rng drives world-plane randomness (bootstrap sampling,
	// KillRandom). On single-shard worlds it IS the simulator's stream,
	// preserving the historical draw sequence byte for byte; sharded
	// worlds give the world plane its own stream so shard streams stay
	// private to their shards.
	rng *rand.Rand

	byID   map[identity.NodeID]*Node
	pool   *identity.Pool
	nextID uint64
	nextIP uint32

	// Incremental live sets in creation order, maintained by create and
	// Kill; they make Live()/LivePublics()/LiveNatted() O(live) copies
	// instead of O(all-ever-created) scans, and bootstrap O(1)-ish
	// instead of the O(N) scan that made world creation O(N²). Every
	// node death must go through Kill for these to stay exact (a test
	// pins equivalence with the scan-based definition).
	liveAll []*Node
	livePub []*Node
	liveNat []*Node
	// scratch is bootstrap's reusable shuffle buffer.
	scratch []*Node

	// shardObs caches the per-shard metric scopes of a sharded world.
	shardObs []*obs.Scope

	// natNum/natShift represent NATRatio exactly as natNum/2^natShift
	// (every float64 is such a dyadic rational), so NAT-type dealing
	// uses exact integer arithmetic at any index.
	natNum   uint64
	natShift uint

	// StackBuilder, when set, augments a freshly created node with the
	// upper layers (WCL, PPSS); used by the full-stack harness.
	StackBuilder func(n *Node)
}

// NewWorld builds the network but does not start gossip; call StartAll
// (or Start on individual nodes) from time zero of the simulation.
func NewWorld(opts Options) (*World, error) {
	opts = opts.withDefaults()
	w := &World{
		Opts:   opts,
		byID:   make(map[identity.NodeID]*Node, opts.N),
		pool:   opts.KeyPool,
		nextIP: 100, // leave room for infrastructure addresses
	}
	if r := opts.NATRatio; r > 0 {
		if r > 1 {
			r = 1
		}
		w.natNum, w.natShift = ratioParts(r)
	}
	if opts.Shards == 1 {
		s := simnet.New(opts.Seed)
		nw := netem.New(s, opts.Model)
		if opts.Faults != nil {
			nw.SetFaults(opts.Faults)
		}
		w.Sim, w.Net, w.Rt = s, nw, simtr.New(s, nw)
		w.rng = s.Rand()
	} else {
		la := netem.MinDelay(opts.Model)
		if la <= 0 {
			return nil, fmt.Errorf("sim: model %T states no positive latency lower bound; sharded worlds need one for the window synchronizer", opts.Model)
		}
		w.eng = simnet.NewSharded(opts.Seed, opts.Shards, la)
		w.fabric = simtr.NewFabric(w.eng, opts.Model)
		if opts.Faults != nil {
			for i := 0; i < opts.Shards; i++ {
				w.fabric.Net(i).SetFaults(opts.Faults)
			}
		}
		w.rng = rand.New(rand.NewSource(opts.Seed))
		if opts.Obs != nil {
			w.shardObs = make([]*obs.Scope, opts.Shards)
			for i := range w.shardObs {
				w.shardObs[i] = opts.Obs.With("shard", strconv.Itoa(i))
			}
		}
	}
	if w.pool == nil {
		pool, err := identity.NewSuitePool(opts.PoolSize, opts.Suite, identity.DefaultKeyBits)
		if err != nil {
			return nil, fmt.Errorf("sim: building key pool: %w", err)
		}
		// Generate the keys the population is about to draw on every
		// core instead of one after the other as create deals them: key
		// generation dominates world set-up. Which slot holds which key
		// is crypto/rand either way, and the dealing order is unchanged.
		pool.Prefill(min(opts.N, opts.PoolSize), runtime.GOMAXPROCS(0))
		w.pool = pool
	}
	// Create the whole initial population first, then bootstrap: the
	// tracker can only hand out P-nodes that exist.
	for i := 0; i < opts.N; i++ {
		w.create()
	}
	for _, n := range w.Nodes {
		w.bootstrap(n)
	}
	return w, nil
}

// ratioParts decomposes r ∈ (0, 1] into num/2^shift exactly: a float64
// is mant × 2^exp with mant ∈ [0.5, 1) holding 53 significant bits, so
// num = mant × 2^53 is an exact integer.
func ratioParts(r float64) (num uint64, shift uint) {
	mant, exp := math.Frexp(r)
	return uint64(mant * (1 << 53)), uint(53 - exp)
}

// floorRatio computes floor(i·r) for r = num/2^shift the way the
// shipped dealing sequence defines it, in pure integer arithmetic.
//
// Historically this was uint64(float64(i) * r). Every golden run and
// every seeded experiment pins that sequence, so for every index where
// it was well-defined — i < 2^53, float64(i) exact — the integer form
// reproduces it bit for bit: the exact 128-bit product i·num is rounded
// to 53 significant bits half-to-even (the one rounding the float64
// multiply performed) before the floor. Past 2^53 the float form
// degraded — float64(i) quantizes, so consecutive indices collapsed and
// the dealt pattern advanced in coarse jumps — and there the integer
// form uses the exact rational floor instead, keeping the dealing
// precise at any index. No FPU is involved at runtime either way, which
// removes any cross-platform rounding hazard from world assembly.
func floorRatio(i, num uint64, shift uint) uint64 {
	hi, lo := bits.Mul64(i, num)
	if i >= 1<<53 {
		// Exact rational floor: floor(i·num / 2^shift).
		switch {
		case shift >= 128:
			return 0
		case shift >= 64:
			return hi >> (shift - 64)
		default:
			return hi<<(64-shift) | lo>>shift
		}
	}
	// Compatibility regime: round the product to 53 significant bits,
	// half to even, exactly as the float64 multiply did.
	n := bits.Len64(lo)
	if hi != 0 {
		n = 64 + bits.Len64(hi)
	}
	if n > 53 {
		drop := uint(n - 53) // ∈ [1, 53]: the product is under 2^106 here
		kept := hi<<(64-drop) | lo>>drop
		rem := lo & (1<<drop - 1)
		half := uint64(1) << (drop - 1)
		if rem > half || (rem == half && kept&1 == 1) {
			kept++ // may carry to 2^53: still exact below
		}
		// Value is kept·2^drop; floor-divide by 2^shift.
		if drop >= shift {
			return kept << (drop - shift)
		}
		if s := shift - drop; s < 64 {
			return kept >> s
		}
		return 0
	}
	// Product fits in 53 bits: no rounding ever happened.
	if shift >= 64 {
		return 0
	}
	return hi<<(64-shift) | lo>>shift
}

// natTypeFor deals NAT types, interleaving P- and N-nodes so that any
// prefix of the population approximates NATRatio, with the four device
// types split evenly among N-nodes (§V-A).
func (w *World) natTypeFor(i uint64) nat.Type {
	if w.natNum == 0 {
		return nat.None
	}
	// Node i is NATted iff the integer part of (i+1)*r advances. The <=
	// guard absorbs the one-off dip possible exactly at the 2^53
	// regime boundary inside floorRatio.
	before := floorRatio(i, w.natNum, w.natShift)
	after := floorRatio(i+1, w.natNum, w.natShift)
	if after <= before {
		return nat.None
	}
	return nat.EmulatedTypes[after%uint64(len(nat.EmulatedTypes))]
}

// Spawn creates and bootstraps a new node, returning it. Used for churn
// arrivals; the caller starts it (or StartAll does).
func (w *World) Spawn() *Node {
	n := w.create()
	w.bootstrap(n)
	return n
}

// create instantiates a node without bootstrapping it. On sharded
// worlds it must only run between windows (world assembly, or control
// events at barriers — churn joins qualify): it mutates the routing
// table and attaches handlers.
func (w *World) create() *Node {
	w.nextID++
	id := identity.NodeID(w.nextID)
	typ := w.natTypeFor(w.nextID - 1)
	ident := w.pool.Identity(id)

	shard := 0
	nw, rt := w.Net, w.Rt
	var sc *obs.Scope
	if w.eng != nil {
		// Round-robin partitioning: NAT mix and churn exposure spread
		// evenly, and (seed, shards) fixes every node's placement.
		shard = int((w.nextID - 1) % uint64(w.eng.Shards()))
		nw, rt = w.fabric.Net(shard), w.fabric.Transport(shard)
		if w.shardObs != nil {
			sc = w.shardObs[shard]
		}
	} else {
		sc = w.Opts.Obs.With("node", id.String())
	}

	cfg := core.Config{Nylon: w.Opts.Nylon, WCL: w.Opts.WCL, PPSS: w.Opts.PPSS, Obs: sc}
	var addr netem.Endpoint
	var dev *nat.Device
	w.nextIP++
	if typ == nat.None {
		addr = netem.Endpoint{IP: netem.IP(w.nextIP), Port: 1}
	} else {
		// The device lives on its node's shard network: relaying is
		// synchronous inside the device, so both must share an event
		// plane. Only the external IP is globally routable.
		dev = nat.NewDevice(nw, typ, netem.IP(w.nextIP), w.Opts.NATLease)
		addr = netem.Endpoint{IP: netem.PrivateBase + netem.IP(w.nextID), Port: 1}
	}
	if w.fabric != nil {
		w.fabric.Assign(netem.IP(w.nextIP), shard)
	}
	st, err := core.NewStack(rt, ident, typ, addr, dev, cfg)
	if err != nil {
		// Key sampling is forced on by the stack; any error here is a
		// programming bug, not an environmental condition.
		panic(fmt.Sprintf("sim: building stack: %v", err))
	}
	node := &Node{Nylon: st.Nylon, WCL: st.WCL, PPSS: st.PPSS, Dev: dev, Type: typ, Shard: shard}
	w.Nodes = append(w.Nodes, node)
	w.liveAll = append(w.liveAll, node)
	if node.Public() {
		w.livePub = append(w.livePub, node)
	} else {
		w.liveNat = append(w.liveNat, node)
	}
	w.byID[id] = node
	if w.StackBuilder != nil {
		w.StackBuilder(node)
	}
	return node
}

// bootstrap seeds the node's view with random live P-nodes (tracker
// model: only publicly reachable nodes are useful before any route
// exists).
func (w *World) bootstrap(node *Node) {
	want := w.Opts.BootstrapPublics
	var ds []nylon.Descriptor
	if w.eng == nil {
		// Classic path, draw-for-draw identical to every previous
		// release: copy the public set (into a reused buffer — the copy
		// itself draws nothing) and fully shuffle it.
		pubs := append(w.scratch[:0], w.livePub...)
		w.scratch = pubs
		w.rng.Shuffle(len(pubs), func(i, j int) { pubs[i], pubs[j] = pubs[j], pubs[i] })
		for _, p := range pubs {
			if p == node {
				continue
			}
			ds = append(ds, p.Nylon.SelfDescriptor())
			if len(ds) >= want {
				break
			}
		}
	} else {
		// Sharded worlds draw O(want) samples instead of shuffling the
		// whole public set — at 100k nodes the full shuffle would put
		// world assembly back at O(N²).
		pubs := w.livePub
		if want > len(pubs) {
			want = len(pubs)
		}
		seen := make(map[int]bool, want+1)
		for tries := 0; len(ds) < want && tries < 20*(want+1); tries++ {
			idx := w.rng.Intn(len(pubs))
			if seen[idx] {
				continue
			}
			seen[idx] = true
			if p := pubs[idx]; p != node {
				ds = append(ds, p.Nylon.SelfDescriptor())
			}
		}
	}
	node.Nylon.Bootstrap(ds)
}

// StartAll starts gossip on every live node.
func (w *World) StartAll() {
	for _, n := range w.liveAll {
		n.Nylon.Start()
	}
}

// Get returns the node with the given ID, or nil.
func (w *World) Get(id identity.NodeID) *Node {
	n := w.byID[id]
	if n == nil || n.Nylon.Stopped() {
		return nil
	}
	return n
}

// Live returns all running nodes in creation order. The returned slice
// is the caller's to mutate.
func (w *World) Live() []*Node { return append([]*Node(nil), w.liveAll...) }

// LiveCount returns the number of running nodes without copying.
func (w *World) LiveCount() int { return len(w.liveAll) }

// LivePublics returns all running P-nodes in creation order.
func (w *World) LivePublics() []*Node { return append([]*Node(nil), w.livePub...) }

// LiveNatted returns all running N-nodes in creation order.
func (w *World) LiveNatted() []*Node { return append([]*Node(nil), w.liveNat...) }

// removeNode deletes n from s preserving order (the live sets are
// creation-ordered, and bootstrap's shuffle draws depend on that
// order). O(live) per kill — the same cost one Live() scan used to be.
func removeNode(s []*Node, n *Node) []*Node {
	for i, x := range s {
		if x == n {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// Kill stops a node abruptly (churn departure). Idempotent. On sharded
// worlds it must only run from the control plane (barriers).
func (w *World) Kill(n *Node) {
	if n.Nylon.Stopped() {
		return
	}
	if n.PPSS != nil {
		n.PPSS.Close()
	}
	n.Nylon.Stop()
	w.liveAll = removeNode(w.liveAll, n)
	if n.Public() {
		w.livePub = removeNode(w.livePub, n)
	} else {
		w.liveNat = removeNode(w.liveNat, n)
	}
}

// KillRandom stops count random live nodes.
func (w *World) KillRandom(count int) []*Node {
	live := w.Live()
	w.rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	if count > len(live) {
		count = len(live)
	}
	killed := live[:count]
	for _, n := range killed {
		w.Kill(n)
	}
	return killed
}

// GraphStream exposes the live overlay as a lazy adjacency stream:
// each consumption walks the live nodes and hands out fresh view
// snapshots, building adjacency on demand instead of up front — the
// road-to-1M path for overlay reports, where the eager map dominated
// report-time memory.
func (w *World) GraphStream() graph.Stream {
	return func(yield func(identity.NodeID, []identity.NodeID) bool) {
		for _, n := range w.liveAll {
			if !yield(n.ID(), n.Nylon.ViewIDs()) {
				return
			}
		}
	}
}

// ResetMeters zeroes all bandwidth meters (per-cycle measurements).
func (w *World) ResetMeters() {
	for _, n := range w.liveAll {
		n.Nylon.Meter().Reset()
	}
}

// CPUTotal merges the crypto CPU meters of every node ever created in
// this world (dead nodes included — their work happened). The parallel
// experiment harness merges these per-run totals after joining its
// workers, so concurrent runs account CPU exactly like sequential ones.
func (w *World) CPUTotal() crypt.CPUMeter {
	var total crypt.CPUMeter
	for _, n := range w.Nodes {
		if n.WCL != nil {
			total.Add(*n.WCL.CPU())
		}
	}
	return total
}

// ----- Engine facade -----
//
// The methods below drive the run regardless of engine flavor, so the
// harness (whisper-sim, whisper-exp, churn scripts) is written once.
// Single-shard worlds delegate to the classic simulator; sharded worlds
// to the window-synchronized coordinator.

// Sharded reports whether this world runs on the sharded engine.
func (w *World) Sharded() bool { return w.eng != nil }

// Engine returns the sharded coordinator, or nil on single-shard
// worlds.
func (w *World) Engine() *simnet.Sharded { return w.eng }

// Fabric returns the sharded transport fabric, or nil on single-shard
// worlds.
func (w *World) Fabric() *simtr.Fabric { return w.fabric }

// Now returns the current virtual time (the barrier time on sharded
// worlds).
func (w *World) Now() time.Duration {
	if w.eng != nil {
		return w.eng.Now()
	}
	return w.Sim.Now()
}

// Run executes events until the world goes quiet or StopRun is called.
func (w *World) Run() {
	if w.eng != nil {
		w.eng.Run()
		return
	}
	w.Sim.Run()
}

// RunUntil executes events up to virtual time t.
func (w *World) RunUntil(t time.Duration) {
	if w.eng != nil {
		w.eng.RunUntil(t)
		return
	}
	w.Sim.RunUntil(t)
}

// RunFor executes events for d of virtual time.
func (w *World) RunFor(d time.Duration) {
	if w.eng != nil {
		w.eng.RunFor(d)
		return
	}
	w.Sim.RunFor(d)
}

// StopRun makes the current Run/RunUntil return; the world may be
// resumed afterwards.
func (w *World) StopRun() {
	if w.eng != nil {
		w.eng.Stop()
		return
	}
	w.Sim.Stop()
}

// Schedule runs fn at absolute virtual time at on the control plane —
// the simulator itself on single-shard worlds, the barrier-synchronized
// control queue on sharded ones. It implements churn.Scheduler, so
// Plan.RunOn(w, actions) scripts churn over either engine; world
// surgery (Spawn, Kill) is safe from these callbacks on both.
func (w *World) Schedule(at time.Duration, fn func()) {
	if w.eng != nil {
		w.eng.Schedule(at, fn)
		return
	}
	w.Sim.Schedule(at, fn)
}

// Rand returns the world-plane random stream (see the rng field note).
func (w *World) Rand() *rand.Rand { return w.rng }

// Executed reports the total events dispatched across all shards.
func (w *World) Executed() uint64 {
	if w.eng != nil {
		return w.eng.Executed()
	}
	return w.Sim.Executed()
}

// NetStats sums datagrams sent and dropped across all shard networks.
func (w *World) NetStats() (sent, dropped uint64) {
	if w.fabric != nil {
		return w.fabric.Stats()
	}
	return w.Net.Stats()
}

// NetFaultStats sums fault-injection totals across all shard networks.
func (w *World) NetFaultStats() netem.FaultStats {
	if w.fabric != nil {
		return w.fabric.FaultStats()
	}
	return w.Net.FaultStats()
}
