package wcl

import (
	"time"

	"whisper/internal/identity"
	"whisper/internal/nylon"
	"whisper/internal/obs"
	"whisper/internal/transport"
)

// Backward acknowledgements: every hop of a one-shot path remembers,
// for a bounded time, how to route an acknowledgement back to the
// previous hop; the source resolves it against its pending sends.
// Circuit relays keep the same backward route in their table entry.

// hopBack is how a hop sends back to its predecessor, captured from
// the message that reached it: the previous hop's ID, the reverse of
// the nylon relays that message crossed, and the endpoint it arrived
// from (used when it crossed none).
type hopBack struct {
	from   identity.NodeID
	via    []identity.NodeID
	direct transport.Endpoint
}

// sendBack routes one backward message (an acknowledgement of the
// path or circuit id) to the previous hop.
func (w *WCL) sendBack(b hopBack, id uint64, payload []byte) {
	w.Trace.Emit(obs.KindAck, w.rt.Now(), 0, 0, id)
	if len(b.via) == 0 {
		w.node.SendAppDirect(b.direct, payload)
		return
	}
	w.node.SendAppVia(nylon.Descriptor{ID: b.from}, b.via, payload)
}

type ackEntry struct {
	back    hopBack
	expires time.Duration
}

// handleAck resolves a pending send or forwards the acknowledgement one
// hop backwards.
func (w *WCL) handleAck(pathID uint64) {
	if st, ok := w.pending[pathID]; ok {
		outcome := Success
		if st.attempts > 1 {
			outcome = AltSuccess
		} else {
			// Karn's rule: every attempt of a send travels under its one
			// path ID, so only a send that made one attempt knows which
			// launch its acknowledgement answers.
			w.sampleRTT(w.rt.Now() - st.start)
		}
		w.finishResult(st, outcome, false)
		return
	}
	w.sendAckBack(pathID)
}

func (w *WCL) sendAckBack(pathID uint64) {
	st, ok := w.ackState[pathID]
	if !ok || w.rt.Now() > st.expires {
		return
	}
	obs.Inc(&w.st.AcksForwarded)
	w.sendBack(st.back, pathID, encodeAck(pathID))
}

// ackExpiry is one ackOrder record: the expiry an ackState entry was
// written with.
type ackExpiry struct {
	pathID  uint64
	expires time.Duration
}

// rememberAck stores back as pathID's backward route for ackTTL.
// Entries expire in the order they were written, so dropping the
// expired head of ackOrder on every insert bounds ackState by the paths
// seen within one ackTTL. A path re-remembered later (a retry through
// the same hop) keeps its newer entry: a head only deletes the entry it
// wrote.
func (w *WCL) rememberAck(pathID uint64, back hopBack) {
	now := w.rt.Now()
	for len(w.ackOrder) > 0 && now > w.ackOrder[0].expires {
		old := w.ackOrder[0]
		if cur, ok := w.ackState[old.pathID]; ok && cur.expires == old.expires {
			delete(w.ackState, old.pathID)
		}
		w.ackOrder = w.ackOrder[1:]
	}
	e := ackEntry{back: back, expires: now + ackTTL}
	w.ackState[pathID] = e
	w.ackOrder = append(w.ackOrder, ackExpiry{pathID, e.expires})
}
