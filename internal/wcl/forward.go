package wcl

import (
	"hash/fnv"
	"time"

	"whisper/internal/crypt"
	"whisper/internal/identity"
	"whisper/internal/nylon"
	"whisper/internal/obs"
	"whisper/internal/transport"
	"whisper/internal/wire"
)

// Relay and exit handling: dispatching WCL messages off the nylon app
// channel, peeling one-shot onions, and forwarding towards the next
// hop or delivering at the destination. Circuit-specific handlers live
// in circuit.go; the forward hop route (sendHop) here is shared.

// handleApp dispatches WCL messages arriving over nylon.
func (w *WCL) handleApp(src transport.Endpoint, payload []byte) {
	if len(payload) == 0 {
		return
	}
	r := wire.NewReader(payload)
	switch r.U8() {
	case msgForward:
		m, err := decodeForward(r)
		if err != nil {
			return
		}
		w.handleForward(src, m)
	case msgAck:
		pathID := r.U64()
		if r.Err() != nil {
			return
		}
		w.handleAck(pathID)
	case msgCircSetup:
		m, err := decodeCircSetup(r)
		if err != nil {
			return
		}
		w.handleCircSetup(src, m)
	case msgCircAck:
		circID := r.U64()
		if r.Err() != nil {
			return
		}
		w.handleCircAck(circID)
	case msgCircData:
		m, err := decodeCircData(r)
		if err != nil {
			return
		}
		w.handleCircData(payload, m)
	case msgCircCellAck:
		circID, seq := r.U64(), r.U64()
		if r.Err() != nil {
			return
		}
		w.handleCircCellAck(circID, seq)
	case msgCircClose:
		circID := r.U64()
		if r.Err() != nil {
			return
		}
		w.handleCircClose(circID)
	case msgCircStreamAck:
		m, err := decodeStreamAck(r)
		if err != nil {
			return
		}
		w.handleCircStreamAck(m)
	}
}

// handleForward peels one onion layer and forwards, or delivers when
// this node is the destination.
func (w *WCL) handleForward(src transport.Endpoint, m *forwardMsg) {
	// Exact duplicates (network duplication, replayed datagrams) are
	// suppressed before the expensive peel. The key folds in an onion
	// digest so retry attempts of the same path — same pathID, fresh
	// onion — still pass. If this node already delivered the path as its
	// exit hop, the duplicate means the forward outran our ack (or the
	// ack was lost), so answer it again instead of staying silent.
	if w.seenForwards.Add(m.PathID ^ fnvSum(m.Onion)) {
		obs.Inc(&w.st.DupForwards)
		if w.deliveredPaths.Contains(m.PathID) {
			w.sendAckBack(m.PathID)
		}
		return
	}
	before := w.cpu.Total()
	next, inner, exit, err := crypt.Peel(w.cpu, w.node.Identity().Key, m.Onion)
	if !w.peeled(before, len(m.Onion), m.PathID, err) {
		return
	}
	// Remember how to route the acknowledgement backwards.
	w.rememberAck(m.PathID, hopBack{from: m.From, via: reverseIDs(m.ViaPath), direct: src})
	if exit {
		// A later attempt of a path this node already delivered (the
		// source retried because the first ack was slow or lost): ack
		// again, but deliver the plaintext exactly once.
		if w.deliveredPaths.Contains(m.PathID) {
			obs.Inc(&w.st.DupDeliveries)
			w.sendAckBack(m.PathID)
			return
		}
		// inner is the content key k.
		pt, err := crypt.OpenSymOnce(w.cpu, inner, m.Content)
		if err != nil {
			obs.Inc(&w.st.PeelErrors)
			return
		}
		w.deliveredPaths.Add(m.PathID)
		obs.Inc(&w.st.Delivered)
		w.Trace.Emit(obs.KindDeliver, w.rt.Now(), 0, len(pt), m.PathID)
		if w.OnReceive != nil {
			w.OnReceive(pt)
		}
		w.sendAckBack(m.PathID)
		return
	}
	fwd := forwardMsg{PathID: m.PathID, From: w.node.ID(), Onion: inner, Content: m.Content}
	frame := func(via []identity.NodeID) []byte { fwd.ViaPath = via; return fwd.encode() }
	w.forwardHop(next, m.PathID, len(inner), frame)
}

// forwardHop sends a peeled onion of size bytes, for path or circuit
// id, on to the hop its address blob next names. An undecodable
// address counts as a peel error, an unroutable hop as DropNoContact.
// It returns the decoded address and whether the message left.
func (w *WCL) forwardHop(next []byte, id uint64, size int, frame func(via []identity.NodeID) []byte) (hopAddr, bool) {
	addr, err := decodeHopAddr(next)
	if err != nil {
		obs.Inc(&w.st.PeelErrors)
		return addr, false
	}
	if !w.sendHop(addr, frame) {
		obs.Inc(&w.st.DropNoContact)
		return addr, false
	}
	w.Trace.Emit(obs.KindForward, w.rt.Now(), 0, size, id)
	return addr, true
}

// sendHop sends one message forward to the hop addr names and reports
// whether a route existed. A P-node (the A→B hop, and middle mixes) is
// addressed by endpoint and needs no setup; a node addressed by ID
// (the B→D hop) is reached over the warm route from its recent gossip
// exchange (routeToID). frame encodes the message given the nylon
// relays it will cross (nil when direct): one-shot forwards and
// circuit setups carry them for backward routing, cells ignore them.
func (w *WCL) sendHop(addr hopAddr, frame func(via []identity.NodeID) []byte) bool {
	if addr.kind == addrByEndpoint {
		w.node.SendAppDirect(addr.ep, frame(nil))
		return true
	}
	d, via, ok := w.routeToID(addr.id)
	if !ok {
		return false
	}
	w.node.SendAppVia(d, via, frame(via))
	return true
}

// peeled accounts one onion layer peeled since the CPU meter read
// before, for the size-byte onion of path or circuit id, and reports
// whether it opened. The meter, not the wall clock, times the peel: its
// RSA unwrap may have run on another core (crypt's speculative unwrap).
func (w *WCL) peeled(before time.Duration, size int, id uint64, err error) bool {
	peelTime := w.cpu.Total() - before
	w.peelMS.ObserveDuration(peelTime)
	w.Trace.Emit(obs.KindPeel, w.rt.Now(), peelTime, size, id)
	if err != nil {
		obs.Inc(&w.st.PeelErrors)
		return false
	}
	obs.Inc(&w.st.ForwardsPeeled)
	return true
}

// routeToID resolves a warm route to a node known only by ID. If the
// direct association has gone cold, the backlog's remembered descriptor
// (from the gossip exchange that made this node a helper for the
// target) and then the PSS view (the Nylon invariant) serve as
// fallbacks. Both one-shot forwards and circuit cells resolve the exit
// hop through here, so a route refreshed by gossip benefits either.
func (w *WCL) routeToID(id identity.NodeID) (nylon.Descriptor, []identity.NodeID, bool) {
	d := nylon.Descriptor{ID: id}
	via, ok := w.node.RouteTo(d)
	if !ok {
		for _, be := range w.cb.Entries() {
			if be.Desc.ID == id {
				d = be.Desc
				via, ok = w.node.RouteTo(d)
				break
			}
		}
	}
	if !ok {
		if vd, have := w.node.ViewDescriptor(id); have {
			d = vd
			via, ok = w.node.RouteTo(d)
		}
	}
	return d, via, ok
}

// fnvSum digests an onion blob for the duplicate-forward key. FNV-1a is
// plenty here: the key only gates a bounded suppression window, and a
// (pathID, digest) collision merely drops one datagram — the retry
// machinery absorbs that like any network loss.
func fnvSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func reverseIDs(ids []identity.NodeID) []identity.NodeID {
	if len(ids) == 0 {
		return nil
	}
	out := make([]identity.NodeID, len(ids))
	for i, id := range ids {
		out[len(ids)-1-i] = id
	}
	return out
}
