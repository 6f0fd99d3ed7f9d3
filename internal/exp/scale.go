package exp

import (
	"cmp"
	"fmt"
	"io"
	"runtime"
	"time"

	"whisper/internal/sim"
)

// scaleConfig drives the large-population throughput run of the
// sharded engine. Unlike the paper figures it reproduces no published
// plot; it exists to measure how far the simulator itself scales
// (events/sec, bytes and resident memory per node) and to pin
// determinism of the sharded schedule in CI.
type scaleConfig struct {
	Seed    int64
	N       int
	Shards  int
	Runtime time.Duration // virtual time simulated
	// Progress, when non-nil, receives a progress line rewritten at most
	// once per simulated second from the engine's window hook. It reads
	// only O(1) engine counters, so long runs show liveness and
	// throughput without any per-node scan until the run ends.
	Progress io.Writer
}

// newScale sizes the run off its own 100k-node, 2-minute baseline,
// floored at 30 s rather than 4 minutes: small scales keep the smoke
// run cheap, and Params.Nodes/Virtual pin either dimension directly.
// Zero shards means 8.
func newScale(p Params) scaleConfig {
	return scaleConfig{Seed: p.Seed, N: cmp.Or(p.Nodes, p.n(100_000)), Shards: cmp.Or(p.Shards, 8),
		Runtime: cmp.Or(p.Virtual, scaled(p, 2*time.Minute, 30*time.Second)), Progress: p.Progress}
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

// scaleResult is one completed scale run.
type scaleResult struct {
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

// run builds a sharded world of cfg.N Nylon nodes and runs it for
// cfg.Runtime of virtual time, measuring simulator throughput. The
// stack is PSS-only: at this population the point is the event engine,
// not the crypto layers, and a pure-Nylon node keeps per-node cost low
// enough that a single process holds 100k+ of them. The latency model
// is PlanetLab's: its 20ms floor gives the conservative synchronizer a
// wide lookahead window, so barriers stay rare relative to events.
func (cfg scaleConfig) run() (scaleResult, error) {
	before := settledHeap()

	w, err := newWorld("scale", sim.Options{Seed: cfg.Seed, N: cfg.N, Shards: cfg.Shards, Model: planetLab.model()})
	if err != nil {
		return scaleResult{}, err
	}

	if cfg.Progress != nil && w.Sharded() {
		defer fmt.Fprintln(cfg.Progress)
		// The hook runs single-threaded at window barriers (workers
		// joined), so the engine counters it reads are settled.
		eng := w.Engine()
		var last time.Duration
		eng.SetWindowHook(func(_, end time.Duration) {
			if end-last >= time.Second {
				last = end
				fmt.Fprintf(cfg.Progress, "\rscale: %v / %v virtual, %d events in %d windows",
					end.Round(time.Second), cfg.Runtime, eng.Executed(), eng.Windows())
			}
		})
	}

	w.StartAll()
	start := time.Now()
	w.RunUntil(cfg.Runtime)
	wall := time.Since(start)

	res := scaleResult{
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

// print writes the virtual report plus a deterministic fingerprint
// line. The fingerprint carries only schedule-derived counters (never
// wall-clock), so two runs with the same (seed, config, shards) must
// print identical fingerprints — CI diffs exactly that.
func (r scaleResult) print(out io.Writer) {
	fmt.Fprintln(out, "== Scale: sharded engine throughput ==")
	fmt.Fprintf(out, "nodes=%d shards=%d virtual=%v\n", r.Nodes, r.Shards, r.Runtime)
	fmt.Fprintf(out, "sent=%d dropped=%d live=%d zero-shuffle-nodes=%d\n",
		r.Sent, r.Dropped, r.Live, r.ZeroShuffles)
	fmt.Fprintf(out, "fingerprint: %s\n", r.fingerprint())
}

// printHost writes the lines that carry wall-clock rates and heap
// growth.
func (r scaleResult) printHost(out io.Writer) {
	fmt.Fprintf(out, "wall=%.2fs events=%d events/sec=%.0f windows=%d\n",
		r.Wall.Seconds(), r.Events, r.EventsPerSec, r.Windows)
	fmt.Fprintf(out, "bytes/node=%.0f mem-bytes/node=%.0f\n",
		r.BytesPerNode, r.MemBytesPerNode)
}

func (r scaleResult) fingerprint() string {
	return fmt.Sprintf("n=%d shards=%d events=%d sent=%d dropped=%d live=%d windows=%d",
		r.Nodes, r.Shards, r.Events, r.Sent, r.Dropped, r.Live, r.Windows)
}

// check flags runs where the engine plainly misbehaved.
func (r scaleResult) check() []string {
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
