package simnet

import (
	"fmt"
	"time"

	"whisper/internal/netem"
	"whisper/internal/simnet"
	"whisper/internal/transport"
)

// Fabric is the sharded substrate: one emulated Network and Transport
// per shard of a simnet.Sharded engine, stitched together by one routing
// table (IP → handler and owning shard) that all of them share. A
// datagram whose destination lives on the sending shard follows the
// ordinary local path; one bound for another shard is buffered by the
// coordinator and injected into the target network at the next window
// barrier, its latency already applied on the sending side. The engine's
// lookahead must come from the latency model's MinDelay bound (NewFabric
// enforces this) so every such datagram lands in a strictly later
// window.
type Fabric struct {
	eng  *simnet.Sharded
	nets []*netem.Network
	trs  []*Transport

	// routes holds public IPs (node public addresses and NAT external
	// addresses). Private IPs never appear: they exist only behind a NAT
	// device, which is co-located on its node's shard.
	routes netem.Routes
}

// NewFabric builds per-shard networks over eng, all using the same
// latency model. The model must state a positive MinDelay no smaller
// than the engine's lookahead, otherwise the conservative window
// synchronizer would not be sound.
func NewFabric(eng *simnet.Sharded, model netem.LatencyModel) *Fabric {
	lb := netem.MinDelay(model)
	if lb <= 0 {
		panic("transport/simnet: latency model has no positive MinDelay bound; sharded execution unsafe")
	}
	if lb < eng.Lookahead() {
		panic(fmt.Sprintf("transport/simnet: model MinDelay %v below engine lookahead %v", lb, eng.Lookahead()))
	}
	f := &Fabric{
		eng:  eng,
		nets: make([]*netem.Network, eng.Shards()),
		trs:  make([]*Transport, eng.Shards()),
	}
	for i := range f.nets {
		i := i
		n := netem.New(eng.Shard(i), model)
		n.SetShardPlane(i, &f.routes, func(dst int, at time.Duration, fire func()) {
			// Runs on shard i's goroutine during a window; Inject buffers
			// into shard i's private lanes, so no lock is needed. At the
			// barrier every destination replays its lanes in a fixed order.
			eng.Inject(i, dst, at, fire)
		})
		f.nets[i] = n
		f.trs[i] = New(eng.Shard(i), n)
	}
	return f
}

// Engine returns the sharded engine underneath.
func (f *Fabric) Engine() *simnet.Sharded { return f.eng }

// Net returns shard i's emulated network.
func (f *Fabric) Net(i int) *netem.Network { return f.nets[i] }

// Transport returns shard i's transport.
func (f *Fabric) Transport(i int) *Transport { return f.trs[i] }

// Assign records that public IP ip lives on shard s. Must be called
// before traffic addressed to ip flows (world assembly does this at
// create time) and only between windows — the routing table is read
// concurrently during windows.
func (f *Fabric) Assign(ip transport.IP, s int) {
	if s < 0 || s >= len(f.nets) {
		panic(fmt.Sprintf("transport/simnet: assign %v to shard %d of %d", ip, s, len(f.nets)))
	}
	f.routes.Assign(ip, f.nets[s])
}

// Unassign removes ip from the routing table (node death). Only between
// windows, like Assign.
func (f *Fabric) Unassign(ip transport.IP) { f.routes.Unassign(ip) }

// Stats sums sent/dropped datagram totals across all shard networks.
func (f *Fabric) Stats() (sent, dropped uint64) {
	for _, n := range f.nets {
		s, d := n.Stats()
		sent += s
		dropped += d
	}
	return
}

// FaultStats sums fault-injection totals across all shard networks.
func (f *Fabric) FaultStats() netem.FaultStats {
	var total netem.FaultStats
	for _, n := range f.nets {
		fs := n.FaultStats()
		total.Duplicated += fs.Duplicated
		total.Reordered += fs.Reordered
		total.BurstDropped += fs.BurstDropped
		total.Partitioned += fs.Partitioned
	}
	return total
}
