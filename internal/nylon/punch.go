package nylon

import (
	"sort"
	"time"

	"whisper/internal/identity"
	"whisper/internal/obs"
	"whisper/internal/transport"
	"whisper/internal/wire"
)

// probeCount is how many staggered probe datagrams each side sends
// during a hole-punch attempt; more than one tolerates the transient
// drops that occur before the peer's filter opens.
const probeCount = 3

// probeSpacing separates successive probes.
const probeSpacing = 50 * time.Millisecond

// maybeDiscoverExternal runs the STUN-style discovery of the node's
// external endpoint against a P-node, once per cycle while the cached
// value is stale. Cone NATs report a stable endpoint; symmetric NATs
// report one that is only valid towards the echo server, which is
// exactly why punching through them fails (§II-C).
func (n *Node) maybeDiscoverExternal() {
	if n.Public() {
		return
	}
	if !n.selfExt.IsZero() && n.rt.Now()-n.selfExtAt < n.cfg.ContactTTL/2 {
		return
	}
	target, ok := n.randomPublicPeer()
	if !ok {
		return
	}
	w := wire.NewWriter(1)
	w.U8(msgEchoReq)
	n.port.Send(target, w.Bytes())
}

// randomPublicPeer picks the endpoint of a usable P-node: preferably a
// live contact, otherwise a P-node from the view. Contact candidates
// are ordered by node ID before the random pick — the table stores them
// in insertion order, and letting that order reach the draw would make
// the RNG stream depend on arrival history in ways the historical
// (sorted) implementation pinned down.
func (n *Node) randomPublicPeer() (transport.Endpoint, bool) {
	var pubIDs []identity.NodeID
	for i := range n.contacts.entries {
		if c := &n.contacts.entries[i]; c.public {
			pubIDs = append(pubIDs, c.id)
		}
	}
	sort.Slice(pubIDs, func(i, j int) bool { return pubIDs[i] < pubIDs[j] })
	var candidates []transport.Endpoint
	for _, id := range pubIDs {
		if ep, ok := n.contactEndpoint(id); ok {
			candidates = append(candidates, ep)
		}
	}
	if len(candidates) == 0 {
		for _, e := range n.view.Publics() {
			if !e.Val.Contact.IsZero() {
				candidates = append(candidates, e.Val.Contact)
			}
		}
	}
	if len(candidates) == 0 {
		return transport.Endpoint{}, false
	}
	return candidates[n.rt.Rand().Intn(len(candidates))], true
}

func (n *Node) handleEchoResp(r *wire.Reader) {
	ep := transport.Endpoint{IP: transport.IP(r.U32()), Port: r.U16()}
	if r.Err() != nil {
		return
	}
	n.selfExt = ep
	n.selfExtAt = n.rt.Now()
	obs.Inc(&n.st.EchoUpdates)
}

// maybePunch starts a hole-punch attempt towards peer after a relayed
// exchange, so that future traffic can flow directly. It is a no-op
// when punching is disabled, the exchange was already direct, or the
// node does not yet know its own external endpoint.
func (n *Node) maybePunch(peer Descriptor, path []identity.NodeID) {
	if n.cfg.DisablePunch || len(path) == 0 || n.usableContact(peer.ID) {
		return
	}
	ext := n.selfExt
	if ext.IsZero() {
		return // discovery not completed yet; a later exchange will punch
	}
	obs.Inc(&n.st.PunchAttempts)
	now := n.rt.Now()
	found := false
	for i := range n.punchSent {
		if n.punchSent[i].id == peer.ID {
			n.punchSent[i].at = now
			found = true
			break
		}
	}
	if !found {
		n.punchSent = append(n.punchSent, punchSentEntry{id: peer.ID, at: now})
	}
	req := punchReq{From: n.ident.ID, Ext: ext, Path: path}
	n.send(req.encode(), peer, path)
}

// handlePunchReq reacts to a peer's punch request: probe its advertised
// external endpoint several times. The first probe also opens our own
// NAT filter towards the peer, so its probes (or replies) can reach us.
func (n *Node) handlePunchReq(r *wire.Reader) {
	sc := getScratch()
	defer sc.release()
	m, err := decodePunchReq(r, sc)
	if err != nil || m.Ext.IsZero() {
		return
	}
	for i := 0; i < probeCount; i++ {
		delay := time.Duration(i) * probeSpacing
		ext := m.Ext
		from := m.From
		n.rt.After(delay, func() {
			if n.stopped || n.usableContact(from) {
				return
			}
			n.port.Send(ext, encodeIDMsg(msgPunchProbe, n.ident.ID))
		})
	}
}

func (n *Node) handlePunchProbe(src transport.Endpoint, r *wire.Reader) {
	from := identity.NodeID(r.U64())
	if r.Err() != nil || from == identity.Nil {
		return
	}
	// A probe that reached us is proof of a working direct path from
	// the peer; replying from our port completes the other direction.
	if !n.usableContact(from) {
		obs.Inc(&n.st.PunchSuccesses)
		n.observePunchRTT(from)
	}
	n.learnContact(from, src, false)
	n.port.Send(src, encodeIDMsg(msgProbeAck, n.ident.ID))
}

func (n *Node) handleProbeAck(src transport.Endpoint, r *wire.Reader) {
	from := identity.NodeID(r.U64())
	if r.Err() != nil || from == identity.Nil {
		return
	}
	if !n.usableContact(from) {
		obs.Inc(&n.st.PunchSuccesses)
		n.observePunchRTT(from)
	}
	n.learnContact(from, src, false)
}

// observePunchRTT records the time from our punch request to the first
// evidence of a working direct path (the peer's probe or ack). Only the
// initiating side has a start time on record.
func (n *Node) observePunchRTT(from identity.NodeID) {
	for i := range n.punchSent {
		if n.punchSent[i].id == from {
			t0 := n.punchSent[i].at
			last := len(n.punchSent) - 1
			n.punchSent[i] = n.punchSent[last]
			n.punchSent = n.punchSent[:last]
			n.punchRTT.ObserveDuration(n.rt.Now() - t0)
			return
		}
	}
}
