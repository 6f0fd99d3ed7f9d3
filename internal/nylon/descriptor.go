// Package nylon implements the NAT-resilient peer sampling service the
// WHISPER stack runs on (Kermarrec et al., "NAT-resilient gossip peer
// sampling", the paper's [21]): a Cyclon-style gossip PSS whose view
// entries carry, for NATted nodes, a chain of rendezvous relays through
// which the node can be reached. The layer maintains the invariant the
// paper relies on: for any node B in the view of a node A there exists
// a way, known to Nylon, to open a communication channel from A to B.
//
// On top of the basic PSS the package provides: UDP hole punching to
// shorten relay routes to direct contacts when the NAT-type pair allows
// it, relay forwarding for the pairs where it does not, STUN-style
// external-endpoint discovery against P-nodes, the Π-biased view
// truncation of WHISPER §III-B-1, and public-key piggybacking for the
// key sampling service of §III-B-2.
package nylon

import (
	"errors"

	"whisper/internal/identity"
	"whisper/internal/transport"
	"whisper/internal/wire"
)

// MaxRoute bounds relay chains; descriptors with longer routes are not
// merged into views. Short routes are the common case because entries
// are refreshed every cycle with fresh (shorter) paths.
const MaxRoute = 4

// Descriptor identifies a node and how to reach it.
type Descriptor struct {
	ID     identity.NodeID
	Public bool
	// Contact is the endpoint to send to: the node's own address for
	// P-nodes, its NAT's external endpoint for N-nodes (meaningful only
	// to peers the NAT will let through; relays are the general path).
	Contact transport.Endpoint
	// Route is the rendezvous chain to traverse for N-nodes: the local
	// node must have a live contact for Route[0], Route[0] for Route[1],
	// and so on; the last relay has a live contact for ID. Empty means
	// direct contact is expected to work.
	Route []identity.NodeID
}

// Key implements pss.Item.
func (d Descriptor) Key() identity.NodeID { return d.ID }

// IsPublic implements pss.Item.
func (d Descriptor) IsPublic() bool { return d.Public }

// WithRoute returns a copy of d with the given relay chain.
func (d Descriptor) WithRoute(route []identity.NodeID) Descriptor {
	d.Route = append([]identity.NodeID(nil), route...)
	return d
}

// encodedSize is the number of bytes encode writes.
func (d Descriptor) encodedSize() int { return 8 + 1 + 4 + 2 + 1 + 8*len(d.Route) }

func (d Descriptor) encode(w *wire.Writer) { d.encodeVia(w, identity.Nil) }

// encodeVia writes d with via, unless Nil, in front of its route (8
// bytes more than encodedSize): the form a shuffle ships an entry in,
// without building the longer route first.
func (d Descriptor) encodeVia(w *wire.Writer, via identity.NodeID) {
	w.U64(uint64(d.ID))
	w.Bool(d.Public)
	w.U32(uint32(d.Contact.IP))
	w.U16(d.Contact.Port)
	hops := len(d.Route)
	if via != identity.Nil {
		hops++
	}
	w.U8(uint8(hops))
	if via != identity.Nil {
		w.U64(uint64(via))
	}
	for _, r := range d.Route {
		w.U64(uint64(r))
	}
}

// Decoder limits on the counts a hostile message can claim. Genuine
// routes are at most MaxRoute+1 long (a shipped entry carries its
// sender in front), genuine buffers ExchangeSize; a count over its limit
// fails the decode.
const (
	maxWireRoute   = 16
	maxWirePath    = 16
	maxWireEntries = 64
)

var errCountOverLimit = errors.New("nylon: count over decoder limit")

// decodeIDs reads a u8-counted ID list into sc. The result aliases
// scratch memory (nil when the list is empty).
func decodeIDs(r *wire.Reader, sc *scratch, limit int) []identity.NodeID {
	n := int(r.U8())
	switch {
	case n > limit:
		r.Fail(errCountOverLimit)
		return nil
	case n == 0:
		return nil
	case r.Remaining() < 8*n: // fail before taking arena room for it
		r.Fail(wire.ErrTruncated)
		return nil
	}
	out := sc.alloc(n)
	for i := range out {
		out[i] = identity.NodeID(r.U64())
	}
	return out
}

// decodeDescriptor reads a descriptor whose Route aliases sc: a caller
// that keeps the descriptor past its handler takes WithRoute(d.Route).
func decodeDescriptor(r *wire.Reader, sc *scratch) Descriptor {
	var d Descriptor
	d.ID = identity.NodeID(r.U64())
	d.Public = r.Bool()
	d.Contact = transport.Endpoint{IP: transport.IP(r.U32()), Port: r.U16()}
	d.Route = decodeIDs(r, sc, maxWireRoute)
	return d
}
