package exp

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"whisper/internal/sim"
)

// ScaleConfig drives the large-population throughput run of the sharded
// engine. Unlike the paper figures it reproduces no published plot; it
// exists to measure how far the simulator itself scales (events/sec,
// bytes and resident memory per node) and to pin determinism of the
// sharded schedule in CI.
type ScaleConfig struct {
	Seed int64
	// N is the population; the acceptance floor for the full run is
	// 100k nodes (default).
	N int
	// Shards is the number of event shards (default 8).
	Shards int
	// Runtime is the virtual time simulated (default 2 minutes — enough
	// for every node to complete several shuffle rounds).
	Runtime time.Duration
	// Env selects the latency model. The harness runs PlanetLab: its
	// 20ms latency floor gives the conservative synchronizer a wide
	// lookahead window, so barriers stay rare relative to events.
	Env Env
	// NATRatio is the fraction of NATted nodes (default 0.7, §V-A).
	NATRatio float64
	// Rollup, when non-nil, receives streamed per-window rollups as
	// virtual time advances (at most once per simulated second). The
	// rollup carries only O(1) engine counters, so long runs can show
	// liveness and throughput without any per-node scan until the run
	// ends.
	Rollup func(ScaleRollup)
}

// ScaleRollup is one streamed progress rollup, emitted from the
// engine's window hook while the run is in flight.
type ScaleRollup struct {
	Now     time.Duration // virtual time reached
	Total   time.Duration // virtual time target
	Events  uint64        // events executed so far
	Windows uint64        // windows completed so far
}

func (c ScaleConfig) withDefaults() ScaleConfig {
	if c.N == 0 {
		c.N = 100_000
	}
	if c.Shards == 0 {
		c.Shards = 8
	}
	if c.Runtime == 0 {
		c.Runtime = 2 * time.Minute
	}
	if c.NATRatio == 0 {
		c.NATRatio = 0.7
	}
	return c
}

// settledHeap returns HeapAlloc after a double-GC settle: the first
// collection frees ordinary garbage, the second reclaims objects whose
// finalizers (or sync.Pool slots) the first pass only queued. Without
// it the heap delta swings by whatever transient garbage the last
// window produced.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// ScaleResult is one completed scale run.
type ScaleResult struct {
	Nodes   int
	Shards  int
	Runtime time.Duration // virtual
	Wall    time.Duration

	Events       uint64
	EventsPerSec float64
	Windows      uint64
	Sent         uint64
	Dropped      uint64
	Live         int
	ZeroShuffles int // live nodes that completed no shuffle at all

	BytesPerNode    float64 // gossip traffic (up+down) per node
	MemBytesPerNode float64 // heap growth attributable to the world
}

// Scale builds a sharded world of cfg.N Nylon nodes and runs it for
// cfg.Runtime of virtual time, measuring simulator throughput. The
// stack is PSS-only: at this population the point is the event engine,
// not the crypto layers, and a pure-Nylon node keeps per-node cost low
// enough that a single process holds 100k+ of them.
func Scale(cfg ScaleConfig) (ScaleResult, error) {
	cfg = cfg.withDefaults()

	before := settledHeap()

	w, err := sim.NewWorld(sim.Options{
		Seed:     cfg.Seed,
		N:        cfg.N,
		Shards:   cfg.Shards,
		NATRatio: cfg.NATRatio,
		Model:    cfg.Env.Model(),
		KeyPool:  keyPool,
		Obs:      worldObs("scale"),
	})
	if err != nil {
		return ScaleResult{}, err
	}

	if cfg.Rollup != nil && w.Sharded() {
		// The hook runs single-threaded at window barriers (workers
		// joined), so the engine counters it reads are settled; each
		// rollup is O(1), never a node scan.
		eng := w.Engine()
		var last time.Duration
		eng.SetWindowHook(func(_, end time.Duration) {
			if end-last >= time.Second {
				last = end
				cfg.Rollup(ScaleRollup{
					Now:     end,
					Total:   cfg.Runtime,
					Events:  eng.Executed(),
					Windows: eng.Windows(),
				})
			}
		})
	}

	w.StartAll()
	start := time.Now()
	w.RunUntil(cfg.Runtime)
	wall := time.Since(start)

	res := ScaleResult{
		Nodes:   cfg.N,
		Shards:  cfg.Shards,
		Runtime: cfg.Runtime,
		Wall:    wall,
		Events:  w.Executed(),
		Live:    w.LiveCount(),
	}
	if w.Sharded() {
		res.Windows = w.Engine().Windows()
	}
	res.Sent, res.Dropped = w.NetStats()
	if secs := wall.Seconds(); secs > 0 {
		res.EventsPerSec = float64(res.Events) / secs
	}
	var bytes uint64
	for _, n := range w.Live() {
		s := n.Nylon.Meter().Snapshot()
		bytes += s.UpBytes + s.DownBytes
		if n.Nylon.Stats().ShufflesCompleted == 0 {
			res.ZeroShuffles++
		}
	}
	res.BytesPerNode = float64(bytes) / float64(cfg.N)
	// Heap growth from before the world existed to end-of-run (world
	// still reachable), amortized per node. Both sides settle with a
	// double GC so the delta measures retained state, not transient
	// garbage awaiting finalizer-driven collection.
	after := settledHeap()
	if after > before {
		res.MemBytesPerNode = float64(after-before) / float64(cfg.N)
	}
	runtime.KeepAlive(w)

	return res, nil
}

// PrintScale writes the human-readable report plus a deterministic
// fingerprint line. The fingerprint carries only schedule-derived
// counters (never wall-clock), so two runs with the same (seed, config,
// shards) must print identical fingerprints — CI diffs exactly that.
func PrintScale(out io.Writer, r ScaleResult) {
	fmt.Fprintln(out, "== Scale: sharded engine throughput ==")
	fmt.Fprintf(out, "nodes=%d shards=%d virtual=%v\n", r.Nodes, r.Shards, r.Runtime)
	fmt.Fprintf(out, "wall=%.2fs events=%d events/sec=%.0f windows=%d\n",
		r.Wall.Seconds(), r.Events, r.EventsPerSec, r.Windows)
	fmt.Fprintf(out, "sent=%d dropped=%d live=%d zero-shuffle-nodes=%d\n",
		r.Sent, r.Dropped, r.Live, r.ZeroShuffles)
	fmt.Fprintf(out, "bytes/node=%.0f mem-bytes/node=%.0f\n",
		r.BytesPerNode, r.MemBytesPerNode)
	fmt.Fprintf(out, "fingerprint: %s\n", r.fingerprint())
}

func (r ScaleResult) fingerprint() string {
	return fmt.Sprintf("n=%d shards=%d events=%d sent=%d dropped=%d live=%d windows=%d",
		r.Nodes, r.Shards, r.Events, r.Sent, r.Dropped, r.Live, r.Windows)
}

// ScaleShapeCheck flags runs where the engine plainly misbehaved.
func ScaleShapeCheck(r ScaleResult) []string {
	var bad []string
	if r.Events == 0 {
		bad = append(bad, "no events executed")
	}
	if r.Sent == 0 {
		bad = append(bad, "no datagrams sent")
	}
	if r.Live != r.Nodes {
		bad = append(bad, fmt.Sprintf("live=%d, want %d (no churn in this run)", r.Live, r.Nodes))
	}
	// Short smoke runs legitimately leave stragglers (NAT registration
	// plus start jitter eats most of a 30s horizon). A full-length run
	// tolerates a thin tail — at 100k nodes under PlanetLab loss a few
	// NATted nodes lose every shuffle of a 2-minute horizon — but not a
	// systemic failure to gossip.
	if r.Runtime >= 2*time.Minute && r.ZeroShuffles > r.Nodes/100 {
		bad = append(bad, fmt.Sprintf("%d of %d nodes completed zero shuffles", r.ZeroShuffles, r.Nodes))
	}
	if r.Windows == 0 && r.Shards > 1 {
		bad = append(bad, "sharded run executed zero windows")
	}
	return bad
}
