package nylon

import (
	"whisper/internal/identity"
	"whisper/internal/pss"
)

// ScribbleScratchOnRelease makes every scratch record come back to the
// pool overwritten to its full capacity (or stops doing so): whatever
// still aliased a record after its handler returned reads garbage from
// then on.
func ScribbleScratchOnRelease(on bool) {
	if !on {
		scratchReleaseHook = nil
		return
	}
	junk := Descriptor{ID: 0xDEADBEEF, Route: []identity.NodeID{0xDEAD, 0xBEEF}}
	scratchReleaseHook = func(sc *scratch) {
		for i := range sc.ids[:cap(sc.ids)] {
			sc.ids[:cap(sc.ids)][i] = 0xDEADBEEF
		}
		for _, list := range [][]pss.Entry[Descriptor]{sc.entries[:cap(sc.entries)], sc.sample[:cap(sc.sample)]} {
			for i := range list {
				list[i] = pss.Entry[Descriptor]{Val: junk, Age: 0xDEAD}
			}
		}
	}
}

// LearnedRoutes returns the node's table of learned relay chains.
func (n *Node) LearnedRoutes() map[identity.NodeID][]identity.NodeID {
	out := make(map[identity.NodeID][]identity.NodeID)
	for _, r := range n.contacts.routes {
		out[r.id] = r.route
	}
	return out
}
