package nylon

import (
	"slices"
	"sync"

	"whisper/internal/identity"
	"whisper/internal/pss"
)

// scratch is the working memory of one handler invocation (or one
// active cycle): the decoded form of the message being handled and the
// lists a shuffle builds on the way to its merge. A handler takes a
// record from the pool when it starts and gives it back when it returns,
// so the record belongs to the executing goroutine for exactly that
// long — whichever goroutine that is (a shard worker, the UDP dispatch
// loop) — and a relayed message that re-enters dispatch gets a record of
// its own. Nothing is kept per node.
//
// The rule that makes this safe is the datagram rule (see
// transport.Datagram) turned around: a datagram payload is the
// handler's for good, scratch is the handler's only until it returns.
// Whatever outlives the handler — a route in a view entry, a learned
// route, an ExchangeEvent's Peer and Path, a pending shuffle — is copied
// out first, and those copies are the only per-entry allocations a
// shuffle makes. TestScratchNeverEscapes overwrites every record on
// release and compares the run with an undisturbed twin.
type scratch struct {
	// ids backs every decoded route and path and every route built from
	// them. It only grows: when it has to reallocate, slices handed out
	// earlier keep the old array, which stays valid (if no longer shared)
	// until the handler is done with it.
	ids []identity.NodeID
	// entries is the received shuffle buffer, adjusted in place.
	entries []pss.Entry[Descriptor]
	// sample is the buffer this node ships, rewritten in place to its
	// shipped form by the encoder.
	sample []pss.Entry[Descriptor]
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// scratchReleaseHook, when a test sets it, sees every record after its
// handler has returned and before the pool gets it back.
var scratchReleaseHook func(*scratch)

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func (sc *scratch) release() {
	if scratchReleaseHook != nil {
		scratchReleaseHook(sc)
	}
	sc.ids, sc.entries, sc.sample = sc.ids[:0], sc.entries[:0], sc.sample[:0]
	scratchPool.Put(sc)
}

// alloc returns n fresh IDs at the end of the arena, capped so that an
// append to the result cannot run into its neighbour.
func (sc *scratch) alloc(n int) []identity.NodeID {
	l := len(sc.ids)
	sc.ids = slices.Grow(sc.ids, n)[:l+n]
	return sc.ids[l : l+n : l+n]
}

// reversed returns path back to front (nil for an empty path).
func (sc *scratch) reversed(path []identity.NodeID) []identity.NodeID {
	if len(path) == 0 {
		return nil
	}
	out := sc.alloc(len(path))
	for i, id := range path {
		out[len(path)-1-i] = id
	}
	return out
}
