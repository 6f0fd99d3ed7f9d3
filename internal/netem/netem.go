// Package netem emulates a wide-area datagram network on top of the
// simnet virtual clock: addressed endpoints, configurable latency and
// loss models (cluster and PlanetLab-like), and per-node bandwidth
// metering.
//
// The unit moved around is a Datagram. Entities attach a Handler to an
// IP; a NAT device (package nat) attaches at its external IP and relays
// to hosts on private IPs behind it. Bandwidth is metered at the Port
// boundary — the interface a protocol stack uses — so relay traffic is
// charged to the relay node, mirroring how the paper accounts load.
//
// The address, datagram, metering and port primitives are owned by
// package transport (they are substrate-independent); this package
// re-exports them under their historical names and adds what is
// genuinely emulation-specific: the latency/loss models, the
// fault-injection layer (FaultModel), and the Network router driven by
// the virtual clock. Network implements the datagram
// plane of transport.Transport; transport/simnet completes it with the
// simnet scheduling plane.
package netem

import (
	"math/rand"
	"time"

	"whisper/internal/simnet"
	"whisper/internal/transport"
)

// IP is a compact network address; see transport.IP.
type IP = transport.IP

// PrivateBase is the first private IP.
const PrivateBase = transport.PrivateBase

// Endpoint is an (IP, port) pair, the address of a datagram socket.
type Endpoint = transport.Endpoint

// Datagram is a single unreliable message.
type Datagram = transport.Datagram

// HeaderOverhead is the per-datagram header cost (IPv4 20 + UDP 8).
const HeaderOverhead = transport.HeaderOverhead

// Handler receives datagrams addressed to an attached IP.
type Handler = transport.Handler

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc = transport.HandlerFunc

// Meter accumulates bandwidth usage at a node's network boundary.
type Meter = transport.Meter

// Uplink is the sending side of a node's attachment to the network.
type Uplink = transport.Uplink

// Port is the datagram socket a protocol stack uses.
type Port = transport.Port

// NewPort creates a port bound to local, sending through uplink.
func NewPort(local Endpoint, uplink Uplink, meter *Meter) *Port {
	return transport.NewPort(local, uplink, meter)
}

// LatencyModel determines one-way delay and loss probability between two
// public interfaces.
type LatencyModel interface {
	// Delay returns the one-way latency for a datagram of size bytes.
	Delay(rng *rand.Rand, src, dst IP, size int) time.Duration
	// LossProb returns the probability in [0,1] that the datagram is
	// dropped in transit.
	LossProb(src, dst IP) float64
}

// MinDelayModel is implemented by latency models that can state a lower
// bound on every delay they will ever return. The sharded engine uses
// the bound as its synchronization lookahead: cross-shard traffic can
// never arrive sooner than MinDelay, so windows of that width are safe.
type MinDelayModel interface {
	MinDelay() time.Duration
}

// MinDelay returns the model's delay lower bound, or zero when the
// model cannot state one (in which case sharded execution must not be
// used with it).
func MinDelay(m LatencyModel) time.Duration {
	if b, ok := m.(MinDelayModel); ok {
		return b.MinDelay()
	}
	return 0
}

// Network routes datagrams between attached handlers with model-driven
// latency and loss, optionally composed with a FaultModel (duplication,
// reordering, burst loss, partitions — see faults.go). All methods must
// be called from simulation events.
type Network struct {
	sim     *simnet.Sim
	model   LatencyModel
	routes  *Routes // its own, or the fabric's shared one (SetShardPlane)
	tap     func(Datagram)
	dropped uint64
	sent    uint64

	faults *FaultModel
	burst  map[[2]IP]bool // Gilbert-Elliott per-directed-link state
	fstats FaultStats

	// free recycles delivery records. Only the shard that drives this
	// network pushes and pops it (see delivery), so it is a plain stack.
	free []*delivery

	// Shard plane (zero/nil on unsharded networks): this network's shard
	// index, and cross, which hands a delivery bound for another shard to
	// the coordinator for barrier exchange.
	shard int
	cross func(dstShard int, at time.Duration, fire func())
}

// Routes is the routing table of one emulated internet: a dense array
// indexed by public IP holding the handler attached there and, on a
// sharded fabric, the network of the shard the address lives on. World
// assembly hands addresses out sequentially, so the array is smaller
// than the hash maps it replaces and a lookup is one bounds check and
// one load — twice per datagram (owner on send, handler on delivery).
//
// An unsharded Network owns its table. The networks of a sharded fabric
// share one, which every shard reads during windows: it may only grow
// (Attach or Assign of an address not seen before) between windows.
// Attach and Detach of a known address touch that address's handler
// only, which nothing but its own shard reads.
type Routes struct{ tab []route }

type route struct {
	h     Handler
	owner *Network // nil: not assigned to a shard, traffic stays on the sender's network
}

// at returns ip's entry, growing the table to hold it.
func (r *Routes) at(ip IP) *route {
	if !ip.Public() {
		panic("netem: " + ip.String() + " is private; only public addresses are routed (private hosts attach inside a nat.Device)")
	}
	if need := int(ip) + 1 - len(r.tab); need > 0 {
		r.tab = append(r.tab, make([]route, need)...)
	}
	return &r.tab[ip]
}

// lookup returns ip's entry, the zero route for an address never seen.
func (r *Routes) lookup(ip IP) route {
	if uint(ip) < uint(len(r.tab)) {
		return r.tab[ip]
	}
	return route{}
}

// Assign records that ip lives on the shard n drives; traffic to it
// from other shards' networks crosses to n.
func (r *Routes) Assign(ip IP, n *Network) { r.at(ip).owner = n }

// Unassign makes ip local to every sender again.
func (r *Routes) Unassign(ip IP) {
	if uint(ip) < uint(len(r.tab)) {
		r.tab[ip].owner = nil
	}
}

// delivery is one datagram in flight: the record the engine's event
// points at between Send and the handler call. Records are recycled, and
// run is bound once per record, so a delivery schedules without
// allocating — no closure, no timer handle.
//
// A record is touched by one shard at a time. The sending network takes
// it off its own free list and fills it in; from the moment it is
// scheduled (locally, or handed to the coordinator for another shard)
// the sender never looks at it again. It fires on the shard of the
// network that delivers it, and that network keeps it on its own free
// list afterwards. Records only ever carry the payload through: the
// handler owns it for good (transport.Datagram), the record forgets it
// before the handler runs.
type delivery struct {
	net *Network // the network that delivers: the sender's, or the destination shard's
	dg  Datagram
	run func() // d.fire, bound when the record was first made
}

// newDelivery takes a record off this network's free list for dg, to be
// delivered by network to.
func (n *Network) newDelivery(to *Network, dg Datagram) *delivery {
	var d *delivery
	if k := len(n.free); k > 0 {
		d = n.free[k-1]
		n.free = n.free[:k-1]
	} else {
		d = &delivery{}
		d.run = d.fire
	}
	d.net, d.dg = to, dg
	return d
}

// fire hands the datagram to the delivering network, after giving the
// record back: sends made from inside the handler reuse it.
func (d *delivery) fire() {
	n, dg := d.net, d.dg
	d.dg = Datagram{}
	n.free = append(n.free, d)
	n.Inject(dg)
}

// New creates a network using the given latency model.
func New(sim *simnet.Sim, model LatencyModel) *Network {
	return &Network{sim: sim, model: model, routes: new(Routes)}
}

// Sim returns the simulator driving this network.
func (n *Network) Sim() *simnet.Sim { return n.sim }

// Attach registers h to receive datagrams addressed to ip, replacing
// any previous handler.
func (n *Network) Attach(ip IP, h Handler) {
	if h == nil {
		panic("netem: attach nil handler")
	}
	n.routes.at(ip).h = h
}

// Detach removes the handler for ip. In-flight datagrams to ip are
// silently dropped at delivery time.
func (n *Network) Detach(ip IP) {
	if tab := n.routes.tab; uint(ip) < uint(len(tab)) {
		tab[ip].h = nil
	}
}

// Attached reports whether some handler is attached at ip.
func (n *Network) Attached(ip IP) bool { return n.routes.lookup(ip).h != nil }

// Stats reports totals of datagrams sent and dropped (loss + dead
// destination) since creation.
func (n *Network) Stats() (sent, dropped uint64) { return n.sent, n.dropped }

// SetTap installs an observer invoked for every datagram accepted for
// transmission (before loss). Tests use it to play the paper's passive
// attacker, who can capture traffic on links.
func (n *Network) SetTap(tap func(Datagram)) { n.tap = tap }

// Send routes dg through the emulated network. The datagram is
// delivered asynchronously after the model's latency, or dropped per the
// model's loss probability; an installed FaultModel may additionally
// drop it (partition, burst loss), duplicate it, or delay one copy past
// later traffic. Payload ownership passes to the network. With no fault
// model installed the random-draw sequence and event schedule are
// identical to the pre-fault-layer network.
func (n *Network) Send(dg Datagram) {
	n.sent++
	if n.tap != nil {
		n.tap(dg)
	}
	rng := n.sim.Rand()
	if n.faults != nil && n.faultDrop(rng, dg.Src.IP, dg.Dst.IP) {
		n.dropped++
		return
	}
	if p := n.model.LossProb(dg.Src.IP, dg.Dst.IP); p > 0 && rng.Float64() < p {
		n.dropped++
		return
	}
	n.deliver(rng, dg)
	if f := n.faults; f != nil && f.DupProb > 0 && rng.Float64() < f.DupProb {
		n.fstats.Duplicated++
		dup := dg
		dup.Payload = append([]byte(nil), dg.Payload...)
		n.deliver(rng, dup)
	}
}

// deliver schedules one copy of dg after the model's latency, plus the
// fault model's reordering jitter for an unlucky subset. On a sharded
// network a datagram whose destination lives on another shard is handed
// to the coordinator instead of the local clock; the latency model's
// MinDelay bound guarantees it lands in a later window. Either way the
// copy travels in a recycled delivery record.
func (n *Network) deliver(rng *rand.Rand, dg Datagram) {
	delay := n.model.Delay(rng, dg.Src.IP, dg.Dst.IP, dg.WireSize())
	if f := n.faults; f != nil && f.ReorderProb > 0 && rng.Float64() < f.ReorderProb {
		n.fstats.Reordered++
		delay += time.Duration(rng.Int63n(int64(f.reorderJitter())))
	}
	at, dst := n.sim.Now()+delay, n
	if o := n.routes.lookup(dg.Dst.IP).owner; o != nil {
		dst = o
	}
	d := n.newDelivery(dst, dg)
	if dst != n {
		n.cross(dst.shard, at, d.run)
		return
	}
	n.sim.Schedule(at, d.run)
}

// SetShardPlane wires this network into a sharded run: shard is the
// network's own shard index, routes the fabric's shared table, which
// replaces the network's own (addresses it does not assign stay local —
// private addresses never cross shards), and cross runs fire on another
// shard at virtual time at.
func (n *Network) SetShardPlane(shard int, routes *Routes, cross func(dstShard int, at time.Duration, fire func())) {
	n.shard = shard
	n.routes = routes
	n.cross = cross
}

// Inject delivers dg to the locally attached handler right now, with no
// latency draw. The cross-shard exchange path uses it at the barrier:
// latency was already applied on the sending shard.
func (n *Network) Inject(dg Datagram) {
	h := n.routes.lookup(dg.Dst.IP).h
	if h == nil {
		n.dropped++
		return
	}
	h.HandleDatagram(dg)
}
