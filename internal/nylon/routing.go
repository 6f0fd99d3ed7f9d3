package nylon

import (
	"errors"
	"fmt"
	"time"

	"whisper/internal/identity"
	"whisper/internal/obs"
	"whisper/internal/transport"
	"whisper/internal/wire"
)

// ErrNoRoute is returned when neither a direct contact nor a usable
// relay chain exists towards a destination.
var ErrNoRoute = errors.New("nylon: no usable route")

// contact is a live direct-communication association with another node:
// the endpoint datagrams to it must target, and the last time we heard
// from it (which bounds how long its NAT association rules keep our
// traffic flowing).
type contact struct {
	id     identity.NodeID
	lastIn time.Duration // virtual time of last direct inbound datagram
	ep     transport.Endpoint
	public bool
}

// routeEntry is the last known relay chain to a node, for peers whose
// exchanges were relayed (no direct association exists). It embodies
// the Nylon property that a channel can be opened to any recent
// partner even without hole punching. Routes are kept in a side table
// because only a small minority of contacts ever carry one: folding
// the slice header and timestamp into every contact would nearly
// triple the 24-byte entry for state that is almost always empty.
type routeEntry struct {
	id      identity.NodeID
	routeAt time.Duration
	route   []identity.NodeID
}

// contactTable stores contacts packed by value in insertion order,
// replacing the historical map[NodeID]*contact. Every node carries one
// of these for its whole life, so at large populations the map's bucket
// overhead and one heap object per contact dominated the table's own
// payload. Lookups scan linearly — a node accumulates tens of contacts,
// and the dense walk is cache-friendly at that size.
type contactTable struct {
	entries []contact
	routes  []routeEntry
}

func (t *contactTable) find(id identity.NodeID) int {
	for i := range t.entries {
		if t.entries[i].id == id {
			return i
		}
	}
	return -1
}

// upsert returns the entry for id, creating it if absent. The returned
// pointer is invalidated by the next upsert or sweep — use immediately.
func (t *contactTable) upsert(id identity.NodeID) *contact {
	if i := t.find(id); i >= 0 {
		return &t.entries[i]
	}
	if len(t.entries) == cap(t.entries) {
		// Double while small, then grow in fixed +4 steps instead of
		// append's doubling: every node carries this table for its
		// whole life, and at large populations the doubled tail (a
		// 9-contact NATted node parked on a 16-slot array, a 35-contact
		// P-node on a 64-slot one) was a measurable share of per-node
		// heap. Growth is rare — a node meets a few dozen distinct
		// peers — so the extra copies are noise.
		step := len(t.entries)
		if step < 2 {
			step = 2
		} else if step > 4 {
			step = 4
		}
		grown := make([]contact, len(t.entries), len(t.entries)+step)
		copy(grown, t.entries)
		t.entries = grown
	}
	t.entries = append(t.entries, contact{id: id})
	return &t.entries[len(t.entries)-1]
}

func (t *contactTable) routeFind(id identity.NodeID) int {
	for i := range t.routes {
		if t.routes[i].id == id {
			return i
		}
	}
	return -1
}

// routeUpsert returns the route entry for id, creating it if absent.
// Same pointer-validity and growth policy as upsert.
func (t *contactTable) routeUpsert(id identity.NodeID) *routeEntry {
	if i := t.routeFind(id); i >= 0 {
		return &t.routes[i]
	}
	if len(t.routes) == cap(t.routes) {
		step := len(t.routes)
		if step < 2 {
			step = 2
		} else if step > 4 {
			step = 4
		}
		grown := make([]routeEntry, len(t.routes), len(t.routes)+step)
		copy(grown, t.routes)
		t.routes = grown
	}
	t.routes = append(t.routes, routeEntry{id: id})
	return &t.routes[len(t.routes)-1]
}

// sweep drops entries no reader can see anymore: direct associations
// past their liveness window, and routes past the contact TTL. The
// conditions mirror the freshness checks in contactEndpoint and
// storedRoute, so removal is observationally identical to keeping the
// stale state around.
func (t *contactTable) sweep(now, ttl time.Duration) {
	keep := t.entries[:0]
	for i := range t.entries {
		c := &t.entries[i]
		directTTL := ttl
		if c.public {
			directTTL *= 4
		}
		if now-c.lastIn <= directTTL {
			keep = append(keep, *c)
		}
	}
	for i := len(keep); i < len(t.entries); i++ {
		t.entries[i] = contact{}
	}
	t.entries = keep

	keepR := t.routes[:0]
	for i := range t.routes {
		if now-t.routes[i].routeAt <= ttl {
			keepR = append(keepR, t.routes[i])
		}
	}
	for i := len(keepR); i < len(t.routes); i++ {
		t.routes[i] = routeEntry{}
	}
	t.routes = keepR
}

// learnContact records that a datagram arrived directly from id via ep.
func (n *Node) learnContact(id identity.NodeID, ep transport.Endpoint, public bool) {
	if id == n.ident.ID || ep.IsZero() {
		return
	}
	c := n.contacts.upsert(id)
	c.ep = ep
	c.public = public
	c.lastIn = n.rt.Now()
}

// learnRoute records a working relay chain to id, learned from a
// relayed gossip exchange.
func (n *Node) learnRoute(id identity.NodeID, route []identity.NodeID) {
	if id == n.ident.ID || len(route) == 0 {
		return
	}
	r := n.contacts.routeUpsert(id)
	r.route = append(r.route[:0], route...)
	r.routeAt = n.rt.Now()
}

// storedRoute returns a remembered relay chain to id whose first relay
// is still reachable.
func (n *Node) storedRoute(id identity.NodeID) ([]identity.NodeID, bool) {
	i := n.contacts.routeFind(id)
	if i < 0 {
		return nil, false
	}
	c := &n.contacts.routes[i]
	if len(c.route) == 0 {
		return nil, false
	}
	if n.rt.Now()-c.routeAt > n.cfg.ContactTTL {
		return nil, false
	}
	if !n.usableContact(c.route[0]) {
		return nil, false
	}
	return c.route, true
}

// usableContact reports whether a direct send to id is expected to
// work: P-node contacts are always usable while fresh enough to assume
// liveness; N-node contacts are usable while inside the contact TTL
// (below the NAT association lease).
func (n *Node) usableContact(id identity.NodeID) bool {
	_, ok := n.contactEndpoint(id)
	return ok
}

func (n *Node) contactEndpoint(id identity.NodeID) (transport.Endpoint, bool) {
	i := n.contacts.find(id)
	if i < 0 {
		return transport.Endpoint{}, false
	}
	c := &n.contacts.entries[i]
	age := n.rt.Now() - c.lastIn
	ttl := n.cfg.ContactTTL
	if c.public {
		// No NAT on their side; allow a longer liveness window.
		ttl *= 4
	}
	if age > ttl {
		return transport.Endpoint{}, false
	}
	return c.ep, true
}

// ContactIDs lists the nodes with currently usable direct contacts
// (diagnostic).
func (n *Node) ContactIDs() []identity.NodeID {
	var out []identity.NodeID
	for i := range n.contacts.entries {
		if id := n.contacts.entries[i].id; n.usableContact(id) {
			out = append(out, id)
		}
	}
	return out
}

// HasContact reports whether a usable direct contact to id exists.
func (n *Node) HasContact(id identity.NodeID) bool { return n.usableContact(id) }

// routeTo picks the relay chain for reaching d: empty for a direct
// send (live contact, or a P-node with a known address), d.Route when
// its first relay is reachable.
func (n *Node) routeTo(d Descriptor) ([]identity.NodeID, bool) {
	if n.usableContact(d.ID) {
		return nil, true
	}
	if d.Public && !d.Contact.IsZero() {
		return nil, true
	}
	if len(d.Route) > 0 && n.usableContact(d.Route[0]) {
		return d.Route, true
	}
	if route, ok := n.storedRoute(d.ID); ok {
		return route, true
	}
	return nil, false
}

// send transmits an encoded message to d along path ([] = direct).
func (n *Node) send(msg []byte, d Descriptor, path []identity.NodeID) {
	if len(path) == 0 {
		ep, ok := n.contactEndpoint(d.ID)
		if !ok {
			if d.Public && !d.Contact.IsZero() {
				ep = d.Contact
			} else {
				obs.Inc(&n.st.RouteFailures)
				return
			}
		}
		n.port.Send(ep, msg)
		return
	}
	first, ok := n.contactEndpoint(path[0])
	if !ok {
		obs.Inc(&n.st.RouteFailures)
		return
	}
	rm := relayMsg{Path: path[1:], Final: d.ID, Inner: msg}
	n.port.Send(first, rm.encode())
}

// handleRelay forwards (or delivers) a relayed message. Relays learn
// nothing about the content: at the WCL layer the inner payload is an
// onion-encrypted blob.
func (n *Node) handleRelay(src transport.Endpoint, r *wire.Reader) {
	sc := getScratch()
	defer sc.release()
	m, err := decodeRelay(r, sc)
	if err != nil {
		return
	}
	if len(m.Path) == 0 && m.Final == n.ident.ID {
		// Terminal delivery to self: dispatch the inner message as if it
		// had arrived directly (src stays the last relay's endpoint).
		n.dispatch(transport.Datagram{Src: src, Dst: n.port.Local(), Payload: m.Inner})
		return
	}
	obs.Inc(&n.st.RelaysForwarded)
	var nextID identity.NodeID
	var rest []identity.NodeID
	if len(m.Path) > 0 {
		nextID, rest = m.Path[0], m.Path[1:]
	} else {
		nextID, rest = m.Final, nil
	}
	ep, ok := n.contactEndpoint(nextID)
	if !ok {
		obs.Inc(&n.st.RelayDrops)
		return
	}
	if nextID == m.Final {
		// Last hop: deliver the inner message unwrapped.
		n.port.Send(ep, m.Inner)
	} else {
		fwd := relayMsg{Path: rest, Final: m.Final, Inner: m.Inner}
		n.port.Send(ep, fwd.encode())
	}
}

// AppHeadroom is the number of bytes the SendApp* functions need free
// at the front of every frame they are handed: the node writes its
// message tag there, so the layer above frames its payload once, in the
// buffer that goes on the wire, instead of having it copied behind a
// tag.
const AppHeadroom = 1

// SendApp delivers an opaque application payload to d, using a direct
// contact when available or d's relay route otherwise. This is the
// primitive the WCL builds onion hops on. frame is the payload preceded
// by AppHeadroom bytes the node overwrites; ownership of frame passes to
// the node (and on to the receiver — see transport.Datagram).
func (n *Node) SendApp(d Descriptor, frame []byte) error {
	path, ok := n.routeTo(d)
	if !ok {
		obs.Inc(&n.st.RouteFailures)
		return fmt.Errorf("%w to %v", ErrNoRoute, d.ID)
	}
	n.SendAppVia(d, path, frame)
	return nil
}

// SendAppDirect sends an application frame (see SendApp) straight to
// an endpoint. Mixes use it for the A→B hop, whose target is a P-node
// addressed inside the onion layer.
func (n *Node) SendAppDirect(ep transport.Endpoint, frame []byte) {
	frame[0] = MsgApp
	n.port.Send(ep, frame)
}

// RequestKey performs the explicit key exchange with a P-node that the
// WCL uses before inserting it into the connection backlog: an
// (almost) empty round trip that both verifies the path and carries the
// public keys (§III-A, §III-B-2). Completion is signalled via
// OnKeyExchange.
func (n *Node) RequestKey(d Descriptor) error {
	path, ok := n.routeTo(d)
	if !ok {
		return fmt.Errorf("%w to %v", ErrNoRoute, d.ID)
	}
	m := keyMsg{From: n.SelfDescriptor(), Key: n.ident.Public()}
	n.send(m.encode(msgKeyReq, n.cfg.KeyBlobSize), d, path)
	return nil
}

func (n *Node) handleKeyMsg(src transport.Endpoint, r *wire.Reader, isReq bool) {
	sc := getScratch()
	defer sc.release()
	m, err := decodeKeyMsg(r, sc, n.cfg.KeyBlobSize)
	if err != nil {
		return
	}
	n.learnContact(m.From.ID, src, m.From.Public)
	if m.Key != nil {
		n.keys.Put(m.From.ID, m.Key)
	}
	if isReq {
		resp := keyMsg{From: n.SelfDescriptor(), Key: n.ident.Public()}
		n.port.Send(src, resp.encode(msgKeyResp, n.cfg.KeyBlobSize))
		return
	}
	if n.OnKeyExchange != nil {
		n.OnKeyExchange(m.From.WithRoute(m.From.Route))
	}
}

// RouteTo exposes the routing decision for d to the layers above: the
// relay chain to use (empty = direct send) and whether any usable route
// exists. The WCL uses it to pre-compute the reverse path for
// acknowledgements.
func (n *Node) RouteTo(d Descriptor) ([]identity.NodeID, bool) { return n.routeTo(d) }

// SendAppVia sends an application frame (see SendApp) along a
// pre-computed path (as returned by RouteTo).
func (n *Node) SendAppVia(d Descriptor, path []identity.NodeID, frame []byte) {
	frame[0] = MsgApp
	n.send(frame, d, path)
}

// ViewDescriptor returns the current view entry for id, if any. Mixes
// use it as a fallback to resolve the final onion hop through a relay
// route when no direct contact is warm.
func (n *Node) ViewDescriptor(id identity.NodeID) (Descriptor, bool) {
	e, ok := n.view.Get(id)
	return e.Val, ok
}
