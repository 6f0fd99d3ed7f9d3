package nylon

import (
	"slices"
	"sync/atomic"
	"time"

	"whisper/internal/identity"
	"whisper/internal/keyss"
	"whisper/internal/nat"
	"whisper/internal/obs"
	"whisper/internal/pss"
	"whisper/internal/transport"
	"whisper/internal/wire"
)

// Config parameterizes a Nylon node. The zero value is completed with
// the paper's defaults by withDefaults.
type Config struct {
	// ViewSize is c, the partial view bound (paper: 10).
	ViewSize int
	// ExchangeSize is the number of entries per shuffle buffer
	// (self included; paper exchanges subsets of the view).
	ExchangeSize int
	// Cycle is the PSS period (paper: 10 s).
	Cycle time.Duration
	// Jitter desynchronizes node cycles (default Cycle/2).
	Jitter time.Duration
	// MinPublic is Π, the minimum number of P-nodes kept per view
	// (§III-B-1). Zero = unbiased baseline.
	MinPublic int
	// CapExcessPublic enables the second bias that sheds P-nodes above
	// the Π threshold (ablation option, see pss.SelectOpts).
	CapExcessPublic bool
	// KeySampling piggybacks public keys on shuffles (§III-B-2).
	KeySampling bool
	// KeyBlobSize is the on-wire size of one key (default 1 KB).
	KeyBlobSize int
	// ShuffleTimeout bounds how long an initiator waits for a response.
	ShuffleTimeout time.Duration
	// Punch enables hole punching to shorten relay routes (default on;
	// DisablePunch turns it off for ablations).
	DisablePunch bool
	// ContactTTL is how long a direct contact is considered usable
	// after the last inbound datagram; it must stay below the NAT lease.
	ContactTTL time.Duration
	// Obs is the observability scope the node's instruments register
	// under (typically carrying a node label). Nil runs unobserved:
	// counters still count (Stats stays accurate) but nothing is
	// exported.
	Obs *obs.Scope
}

func (c Config) withDefaults() Config {
	if c.ViewSize == 0 {
		c.ViewSize = 10
	}
	if c.ExchangeSize == 0 {
		c.ExchangeSize = 5
	}
	if c.Cycle == 0 {
		c.Cycle = 10 * time.Second
	}
	if c.Jitter == 0 {
		c.Jitter = c.Cycle / 2
	}
	if c.KeyBlobSize == 0 {
		c.KeyBlobSize = keyss.DefaultKeyBlobSize
	}
	if c.ShuffleTimeout == 0 {
		c.ShuffleTimeout = 3 * time.Second
	}
	if c.ContactTTL == 0 {
		c.ContactTTL = 30 * time.Minute
	}
	return c
}

// Stats holds the node's protocol counters: the node bumps them in
// place and Node.Stats returns a copy. The tags name the exported
// metrics (see obs.Register).
type Stats struct {
	ShufflesInitiated uint64 `obs:"nylon_shuffles_initiated_total"`
	// ShufflesViaRelays counts initiated shuffles whose request had to
	// travel through a rendezvous chain (no direct association existed).
	ShufflesViaRelays uint64 `obs:"nylon_shuffles_via_relays_total"`
	ShufflesCompleted uint64 `obs:"nylon_shuffles_completed_total"`
	ShufflesTimedOut  uint64 `obs:"nylon_shuffles_timed_out_total"`
	ShufflesServed    uint64 `obs:"nylon_shuffles_served_total"`
	RouteFailures     uint64 `obs:"nylon_route_failures_total"`
	RelaysForwarded   uint64 `obs:"nylon_relays_forwarded_total"`
	RelayDrops        uint64 `obs:"nylon_relay_drops_total"`
	PunchAttempts     uint64 `obs:"nylon_punch_attempts_total"`
	PunchSuccesses    uint64 `obs:"nylon_punch_successes_total"`
	EchoUpdates       uint64 `obs:"nylon_echo_updates_total"`
}

// sharedPunchRTT absorbs punch RTT observations for nodes running
// without a metrics scope: the per-node histogram is write-only then
// (Stats does not expose it), so unobserved nodes share one sink
// instead of each retaining a bucket array. Histogram writes are
// atomic, so the shared sink is safe from every node.
var sharedPunchRTT = obs.NewHistogram()

// ExchangeEvent notifies the layer above (the WCL's connection backlog)
// of a completed bidirectional gossip exchange (§III-A: only successful
// gossip exchanges feed the CB).
type ExchangeEvent struct {
	// Peer describes the partner, with a Route usable from this node.
	Peer Descriptor
	// Path is the relay chain used ([] for a direct exchange).
	Path []identity.NodeID
	// Initiated is true on the requester side.
	Initiated bool
}

// pendingShuffle is an in-flight shuffle this node initiated: what the
// response is matched against and merged with. It keeps the IDs of the
// buffer it shipped, not the buffer — the IDs are all the merge reads.
//
// A node has at most a couple of shuffles in flight, so n.pending holds
// them by value in a packed slice with linear scans (the historical
// map[uint32]*pendingShuffle's buckets outweighed the payload at large
// populations), and the slice is dropped when the last one ends so that
// an idle node retains nothing.
type pendingShuffle struct {
	seq     uint32
	partner identity.NodeID
	path    []identity.NodeID
	sent    []identity.NodeID
	timer   transport.Timer
}

// findPending returns the index in n.pending of the in-flight shuffle
// with the given sequence number, or -1.
func (n *Node) findPending(seq uint32) int {
	for i := range n.pending {
		if n.pending[i].seq == seq {
			return i
		}
	}
	return -1
}

// removePending drops the in-flight shuffle with the given sequence
// number, reporting whether it existed.
func (n *Node) removePending(seq uint32) bool {
	i := n.findPending(seq)
	if i >= 0 {
		n.removePendingAt(i)
	}
	return i >= 0
}

// removePendingAt drops n.pending[i].
func (n *Node) removePendingAt(i int) {
	last := len(n.pending) - 1
	if last == 0 {
		n.pending = nil
		return
	}
	n.pending[i] = n.pending[last]
	n.pending[last] = pendingShuffle{}
	n.pending = n.pending[:last]
}

// Node is one Nylon PSS participant.
type Node struct {
	cfg   *Config // shared across nodes built with an identical config
	rt    transport.Transport
	ident *identity.Identity
	port  *transport.Port
	typ   nat.Type
	dev   *nat.Device

	view     *pss.View[Descriptor]
	keys     *keyss.Store
	contacts contactTable
	pending  []pendingShuffle
	seq      uint32

	selfExt   transport.Endpoint
	selfExtAt time.Duration
	ticker    transport.Ticker
	stopped   bool

	// OnExchange, if set, is invoked after every successful exchange.
	OnExchange func(ev ExchangeEvent)
	// OnKeyExchange, if set, is invoked when an explicit key exchange
	// with a P-node completes (the WCL inserts it into the CB then).
	OnKeyExchange func(peer Descriptor)
	// AppHandler receives MsgApp payloads for the layer above.
	AppHandler func(src transport.Endpoint, payload []byte)

	st       Stats
	punchRTT *obs.Histogram
	// punchSent remembers when a punch request left for a peer, to
	// derive the punch RTT when the peer's probe (or ack) arrives. A
	// node has at most a handful of punches outstanding, so a packed
	// slice (empty until the first punch) replaces the historical map.
	punchSent []punchSentEntry
}

// punchSentEntry records an outstanding punch request's start time.
type punchSentEntry struct {
	id identity.NodeID
	at time.Duration
}

// cfgCache deduplicates the per-node Config copy: a world builds every
// node with the same effective config, so all of them can point at one
// shared value instead of embedding ~100 bytes each. Lock-free — a
// racing store at worst wastes one copy.
var cfgCache atomic.Pointer[Config]

func sharedConfig(c Config) *Config {
	if p := cfgCache.Load(); p != nil && *p == c {
		return p
	}
	p := &c
	cfgCache.Store(p)
	return p
}

// NewNode wires a node to a transport (the emulated substrate or real
// UDP sockets — the node never knows which). For N-nodes pass the NAT
// device and a private addr; for P-nodes pass dev nil and a public
// addr. NAT devices exist only on the emulated substrate: the device
// must be attached to the same underlying network as rt. The node
// registers itself with the transport (or device) immediately but
// gossips only after Start.
func NewNode(rt transport.Transport, ident *identity.Identity, typ nat.Type, addr transport.Endpoint, dev *nat.Device, cfg Config) *Node {
	cfg = cfg.withDefaults()
	n := &Node{
		cfg:   sharedConfig(cfg),
		rt:    rt,
		ident: ident,
		typ:   typ,
		dev:   dev,
		view:  pss.NewView[Descriptor](cfg.ViewSize),
		keys:  keyss.NewStore(),
	}
	n.punchRTT = sharedPunchRTT
	if cfg.Obs != nil {
		obs.Register(cfg.Obs, &n.st)
		n.punchRTT = cfg.Obs.Histogram("nylon_punch_rtt_ms")
	}
	meter := &transport.Meter{}
	// Bandwidth gauges read the (atomic) meter at scrape time.
	cfg.Obs.GaugeFunc("transport_up_bytes", func() float64 { return float64(meter.UpBytes()) })
	cfg.Obs.GaugeFunc("transport_down_bytes", func() float64 { return float64(meter.DownBytes()) })
	cfg.Obs.GaugeFunc("transport_up_msgs", func() float64 { return float64(meter.Snapshot().UpMsgs) })
	cfg.Obs.GaugeFunc("transport_down_msgs", func() float64 { return float64(meter.Snapshot().DownMsgs) })
	if typ == nat.None {
		if dev != nil {
			panic("nylon: public node with a NAT device")
		}
		if !addr.IP.Public() {
			panic("nylon: public node with private address")
		}
		n.port = transport.NewPort(addr, rt, meter)
		rt.Attach(addr.IP, n.port)
		n.selfExt = addr
	} else {
		if dev == nil {
			panic("nylon: NATted node without a device")
		}
		if addr.IP.Public() {
			panic("nylon: NATted node with public address")
		}
		n.port = transport.NewPort(addr, dev, meter)
		dev.AttachInside(addr.IP, n.port)
	}
	n.port.SetHandler(n.dispatch)
	return n
}

// ID returns the node identifier.
func (n *Node) ID() identity.NodeID { return n.ident.ID }

// Identity returns the node's identity (keys included).
func (n *Node) Identity() *identity.Identity { return n.ident }

// NATType returns the node's NAT type (None for P-nodes).
func (n *Node) NATType() nat.Type { return n.typ }

// Public reports whether the node is a P-node.
func (n *Node) Public() bool { return n.typ == nat.None }

// Addr returns the node's own (possibly private) bound endpoint.
func (n *Node) Addr() transport.Endpoint { return n.port.Local() }

// Meter returns the node's bandwidth meter.
func (n *Node) Meter() *transport.Meter { return n.port.Meter() }

// Stats returns a snapshot of the node's protocol counters.
func (n *Node) Stats() Stats { return n.st }

// Keys returns the public-key sampling store.
func (n *Node) Keys() *keyss.Store { return n.keys }

// View returns the current view entries.
func (n *Node) View() []pss.Entry[Descriptor] { return n.view.Entries() }

// ViewIDs returns the IDs in the current view.
func (n *Node) ViewIDs() []identity.NodeID { return n.view.IDs() }

// Config returns the node's effective configuration.
func (n *Node) Config() Config { return *n.cfg }

// GetPeer returns one uniformly random peer from the view — the
// getPeer() of the PSS API (Fig 1). ok is false if the view is empty.
func (n *Node) GetPeer() (Descriptor, bool) {
	e, ok := n.view.Random(n.rt.Rand())
	return e.Val, ok
}

// SelfDescriptor returns the descriptor the node gossips about itself.
func (n *Node) SelfDescriptor() Descriptor {
	return Descriptor{
		ID:      n.ident.ID,
		Public:  n.Public(),
		Contact: n.selfExt, // zero until STUN discovery for N-nodes
	}
}

// Bootstrap seeds the view, as a tracker or invitation would.
func (n *Node) Bootstrap(ds []Descriptor) {
	for _, d := range ds {
		if d.ID != n.ident.ID {
			n.view.Insert(d, 0)
		}
	}
}

// Start begins periodic gossip.
func (n *Node) Start() {
	if n.ticker != nil || n.stopped {
		return
	}
	n.ticker = n.rt.EveryJitter(n.cfg.Cycle, n.cfg.Jitter, n.cycle)
}

// Stop halts the node abruptly (crash-stop, as the churn model
// assumes): the port closes and all timers are cancelled. Peers detect
// the departure through shuffle timeouts and view aging.
func (n *Node) Stop() {
	if n.stopped {
		return
	}
	n.stopped = true
	if n.ticker != nil {
		n.ticker.Stop()
	}
	for i := range n.pending {
		n.pending[i].timer.Cancel()
	}
	n.port.Close()
	if n.typ == nat.None {
		n.rt.Detach(n.port.Local().IP)
	} else {
		n.dev.DetachInside(n.port.Local().IP)
		n.dev.Close()
	}
}

// Stopped reports whether the node was stopped.
func (n *Node) Stopped() bool { return n.stopped }

// cycle runs one active PSS round.
func (n *Node) cycle() {
	if n.stopped {
		return
	}
	n.contacts.sweep(n.rt.Now(), n.cfg.ContactTTL)
	n.maybeDiscoverExternal()
	n.view.AgeAll()
	partner, ok := n.view.Oldest()
	if !ok {
		return
	}
	// Cyclon: the partner's slot is freed and refilled by the response.
	n.view.Remove(partner.Val.Key())
	path, ok := n.routeTo(partner.Val)
	if !ok {
		obs.Inc(&n.st.RouteFailures)
		return
	}
	// The buffer: self (age 0) plus a random sample excluding the
	// partner, shipped from scratch. What outlives this call is the
	// datagram and the pending shuffle with the sampled IDs.
	sc := getScratch()
	defer sc.release()
	sc.sample = n.view.SampleInto(sc.sample, n.rt.Rand(), n.cfg.ExchangeSize-1, partner.Val.Key())
	sent := entryIDs(make([]identity.NodeID, len(sc.sample)), sc.sample)
	n.seq++
	seq := n.seq
	msg := n.encodeShuffle(msgShuffleReq, seq, path, true, sc.sample)
	obs.Inc(&n.st.ShufflesInitiated)
	if len(path) > 0 {
		obs.Inc(&n.st.ShufflesViaRelays)
	}
	timer := n.rt.After(n.cfg.ShuffleTimeout, func() {
		if n.removePending(seq) {
			obs.Inc(&n.st.ShufflesTimedOut)
		}
	})
	n.pending = append(n.pending, pendingShuffle{seq: seq, partner: partner.Val.ID, path: path, sent: sent, timer: timer})
	n.send(msg, partner.Val, path)
}

// adjustReceived completes received entry routes, in place, with the
// local path to the exchange partner and drops entries whose route grew
// beyond MaxRoute. The completed routes are built in sc.
func (n *Node) adjustReceived(sc *scratch, entries []pss.Entry[Descriptor], pathToSender []identity.NodeID) []pss.Entry[Descriptor] {
	out := entries[:0]
	for _, e := range entries {
		d := &e.Val
		if !d.Public && d.ID != n.ident.ID {
			if n.usableContact(d.ID) {
				d.Route = nil
			} else {
				hops := len(pathToSender) + len(d.Route)
				if hops > MaxRoute {
					continue
				}
				if len(pathToSender) > 0 {
					route := sc.alloc(hops)
					copy(route[copy(route, pathToSender):], d.Route)
					d.Route = route
				}
			}
		}
		out = append(out, e)
	}
	return out
}

// entryIDs fills dst, which has room for exactly that, with the IDs of
// entries: what a merge needs to know of a buffer that was shipped.
func entryIDs(dst []identity.NodeID, entries []pss.Entry[Descriptor]) []identity.NodeID {
	for i := range entries {
		dst[i] = entries[i].Val.ID
	}
	return dst
}

// ownDescriptor is the keep function of this node's merges: a received
// descriptor that enters the view takes its route out of scratch.
func ownDescriptor(d Descriptor) Descriptor { return d.WithRoute(d.Route) }

func (n *Node) selectOpts() pss.SelectOpts {
	return pss.SelectOpts{
		Capacity:        n.cfg.ViewSize,
		Self:            n.ident.ID,
		MinPublic:       n.cfg.MinPublic,
		CapExcessPublic: n.cfg.CapExcessPublic,
	}
}

// dispatch routes one inbound datagram to its handler.
func (n *Node) dispatch(dg transport.Datagram) {
	if n.stopped || len(dg.Payload) == 0 {
		return
	}
	r := wire.NewReader(dg.Payload)
	typ := r.U8()
	switch typ {
	case msgShuffleReq:
		n.handleShuffleReq(dg.Src, r)
	case msgShuffleResp:
		n.handleShuffleResp(dg.Src, r)
	case msgRelay:
		n.handleRelay(dg.Src, r)
	case msgEchoReq:
		n.port.Send(dg.Src, encodeEchoResp(dg.Src))
	case msgEchoResp:
		n.handleEchoResp(r)
	case msgPunchReq:
		n.handlePunchReq(r)
	case msgPunchProbe:
		n.handlePunchProbe(dg.Src, r)
	case msgProbeAck:
		n.handleProbeAck(dg.Src, r)
	case msgKeyReq:
		n.handleKeyMsg(dg.Src, r, true)
	case msgKeyResp:
		n.handleKeyMsg(dg.Src, r, false)
	case MsgApp:
		if n.AppHandler != nil {
			n.AppHandler(dg.Src, dg.Payload[1:])
		}
	}
}

func (n *Node) handleShuffleReq(src transport.Endpoint, r *wire.Reader) {
	sc := getScratch()
	defer sc.release()
	req, err := decodeShuffle(r, sc, n.cfg.KeyBlobSize)
	if err != nil {
		return
	}
	direct := len(req.Path) == 0
	if direct {
		n.learnContact(req.From.ID, src, req.From.Public)
	}
	reverse := sc.reversed(req.Path)
	// The requester's own entry arrives with an empty route; the
	// reverse of the request path is how we reach it.
	received := n.adjustReceived(sc, req.Entries, reverse)

	// Reply with our own buffer before merging (Cyclon).
	sc.sample = n.view.SampleInto(sc.sample, n.rt.Rand(), n.cfg.ExchangeSize, req.From.ID)
	sent := entryIDs(sc.alloc(len(sc.sample)), sc.sample)
	resp := n.encodeShuffle(msgShuffleResp, req.Seq, req.Path, false, sc.sample)
	peer := req.From
	peer.Route = reverse
	n.learnRoute(peer.ID, reverse)
	n.send(resp, peer, reverse)

	pss.MergeCyclonIDs(n.view, sent, received, n.selectOpts(), ownDescriptor)
	if n.cfg.KeySampling && req.Key != nil {
		n.keys.Put(peer.ID, req.Key)
	}
	obs.Inc(&n.st.ShufflesServed)
	if n.OnExchange != nil {
		n.OnExchange(ExchangeEvent{Peer: peer.WithRoute(reverse), Path: slices.Clone(reverse), Initiated: false})
	}
	n.maybePunch(peer, reverse)
}

func (n *Node) handleShuffleResp(src transport.Endpoint, r *wire.Reader) {
	sc := getScratch()
	defer sc.release()
	resp, err := decodeShuffle(r, sc, n.cfg.KeyBlobSize)
	if err != nil {
		return
	}
	i := n.findPending(resp.Seq)
	if i < 0 || n.pending[i].partner != resp.From.ID {
		return
	}
	p := n.pending[i]
	n.removePendingAt(i)
	p.timer.Cancel()
	if len(p.path) == 0 {
		n.learnContact(resp.From.ID, src, resp.From.Public)
	}
	received := n.adjustReceived(sc, resp.Entries, p.path)
	pss.MergeCyclonIDs(n.view, p.sent, received, n.selectOpts(), ownDescriptor)
	if n.cfg.KeySampling && resp.Key != nil {
		n.keys.Put(resp.From.ID, resp.Key)
	}
	obs.Inc(&n.st.ShufflesCompleted)
	n.learnRoute(resp.From.ID, p.path)
	peer := resp.From
	peer.Route = p.path
	if n.OnExchange != nil {
		n.OnExchange(ExchangeEvent{Peer: peer.WithRoute(p.path), Path: p.path, Initiated: true})
	}
	n.maybePunch(peer, p.path)
}

// Runtime returns the transport driving this node, for layers that
// need timers and randomness.
func (n *Node) Runtime() transport.Transport { return n.rt }
