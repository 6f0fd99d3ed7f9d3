package main

import (
	"runtime/metrics"
	"time"
	"unsafe"

	"whisper/internal/nylon"
	"whisper/internal/pss"
)

// gossip measures the PSS-only world. It has no client: every node is
// its own closed loop with think time — one shuffle per cycle, and a
// shuffle that times out is retried by the next cycle — so an op is a
// view refresh, it succeeds when a shuffle the node initiated completes,
// and its latency is the virtual time since the node's previous refresh.
//
// Throughput is read per slice of equal virtual time, but ops_per_s is
// not the median slice. The heap is hundreds of megabytes and a GC cycle
// takes half a second, so slices come in two kinds, with and without the
// collector, a factor of two apart: their median flips between the two,
// and even the rate over a fixed six seconds moves by ±4 % with whether
// eleven or twelve cycles fell into them. ops_per_s is therefore the
// rate between the first and the last slice boundary at which a GC
// cycle had just finished: a whole number of cycles.
type gossip struct {
	b *world
	// Every stride-th node records when its own shuffles complete. The
	// hook runs on the node's shard goroutine and appends to that node's
	// slice only; the slices are read between RunFor calls, when every
	// shard is parked.
	refreshed [][]time.Duration
	slices    []float64
	wall      time.Duration
	total     uint64       // completed shuffles of the timed part
	gcEnds    []checkpoint // the slice boundaries right after a GC cycle
	onFixed   func()
}

// checkpoint is the timed part so far: host time inside RunFor and
// completed shuffles. forced marks the one taken after the collections
// that settle the heap at the end of the fixed part: they run off the
// clock, so the interval they cut short is not a whole cycle.
type checkpoint struct {
	wall   time.Duration
	ops    uint64
	forced bool
}

const (
	refreshStride = 32
	// entryBytes is what one exchanged view entry counts for in
	// goodput_kibps: gossip-scale carries no application payload, so
	// the view entries a completed shuffle moves (ExchangeSize each
	// way) are counted at their in-memory size.
	entryBytes = uint64(unsafe.Sizeof(pss.Entry[nylon.Descriptor]{}))
)

// newGossip hooks the sampled nodes; it runs before StartAll so that
// the first refresh inside the fixed part has a predecessor.
func newGossip(b *world) *gossip {
	g := &gossip{b: b}
	for i := 0; i < len(b.w.Nodes); i += refreshStride {
		n := b.w.Nodes[i].Nylon
		rt := n.Runtime()
		k := len(g.refreshed)
		g.refreshed = append(g.refreshed, nil)
		n.OnExchange = func(ev nylon.ExchangeEvent) {
			if ev.Initiated {
				g.refreshed[k] = append(g.refreshed[k], rt.Now())
			}
		}
	}
	return g
}

// counts maps shuffle totals onto the operation counts: every ended
// shuffle is a submission, every completed one a successful op that
// delivered 2×ExchangeSize view entries.
func (g *gossip) counts() counts {
	var done, timedOut uint64
	for _, n := range g.b.w.Nodes {
		st := n.Nylon.Stats()
		done += st.ShufflesCompleted
		timedOut += st.ShufflesTimedOut
	}
	per := 2 * uint64(g.b.w.Nodes[0].Nylon.Config().ExchangeSize) * entryBytes
	return counts{
		Attempted:   done,
		Succeeded:   done,
		Submissions: done + timedOut,
		SubmitFails: timedOut,
		Delivered:   done,
		PayloadB:    done * per,
	}
}

// check is the run half of the correctness gate: a timed-out shuffle is
// retried by the next cycle and fails no op, but a world in which more
// than one node in a thousand got no shuffle through since time zero
// has stopped gossiping. (A handful of NATted nodes do lose every
// shuffle of the first minute under PlanetLab loss.)
func (g *gossip) check() {
	stalled := 0
	for _, n := range g.b.w.Nodes {
		if n.Nylon.Stats().ShufflesCompleted == 0 {
			stalled++
		}
	}
	if stalled > len(g.b.w.Nodes)/1000 {
		g.b.problem("%d of %d nodes completed no shuffle", stalled, len(g.b.w.Nodes))
	}
}

func (g *gossip) completed() (done uint64) {
	for _, n := range g.b.w.Nodes {
		done += n.Nylon.Stats().ShufflesCompleted
	}
	return done
}

// gcCycles reads the number of completed GC cycles (no stop-the-world).
func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// run executes the measured phase: slices of equal virtual time until
// both the fixed part is complete and the host-time budget is spent,
// and then up to gcGrace more so that the part ends with a GC cycle.
func (g *gossip) run(budget time.Duration) {
	const gcGrace = 8 // slices: about two GC cycles at full size
	w, wl := g.b.w, g.b.wl
	sp := g.b.tr.begin("sim.pump", 0)
	before, cycles := g.completed(), gcCycles()
	for i, over := 0, 0; over < gcGrace; i++ {
		t := time.Now()
		w.RunFor(wl.Slice)
		d := time.Since(t)
		g.b.tr.pumped()
		after := g.completed()
		g.wall += d
		g.total += after - before
		g.slices = append(g.slices, float64(after-before)/d.Seconds())
		before = after
		done := i+1 >= wl.FixedOps && g.wall >= budget
		if i+1 == wl.FixedOps {
			g.onFixed()
			cycles = gcCycles()
			g.gcEnds = append(g.gcEnds, checkpoint{g.wall, g.total, true})
		} else if c := gcCycles(); c != cycles {
			cycles = c
			g.gcEnds = append(g.gcEnds, checkpoint{g.wall, g.total, false})
			if done {
				break
			}
		}
		if done {
			over++
		}
	}
	g.b.tr.end(sp)
}

// opsPerS is the rate over the whole GC cycles of the timed part, or
// over all of it when they cover less than half (the shrunken worlds of
// -verify and the smoke test have heaps too small to be collected).
func (g *gossip) opsPerS() float64 {
	var ops uint64
	var wall time.Duration
	for i := 1; i < len(g.gcEnds); i++ {
		if a, b := g.gcEnds[i-1], g.gcEnds[i]; !b.forced {
			ops += b.ops - a.ops
			wall += b.wall - a.wall
		}
	}
	if wall < g.wall/2 {
		ops, wall = g.total, g.wall
	}
	return float64(ops) / wall.Seconds()
}

// refreshMS returns the refresh intervals that ended inside (from, to],
// in virtual milliseconds.
func (g *gossip) refreshMS(from, to time.Duration) []float64 {
	var out []float64
	for _, ts := range g.refreshed {
		for i := 1; i < len(ts); i++ {
			if ts[i] > from && ts[i] <= to {
				out = append(out, float64(ts[i]-ts[i-1])/float64(time.Millisecond))
			}
		}
	}
	return out
}
