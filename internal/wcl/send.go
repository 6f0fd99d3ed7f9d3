package wcl

import (
	"time"

	"whisper/internal/crypt"
	"whisper/internal/identity"
	"whisper/internal/nylon"
	"whisper/internal/obs"
	"whisper/internal/transport"
)

// The path-attempt engine (§III, footnote 3): pick A from the
// connection backlog and B from the destination's helpers, wrap an
// onion, route it to A, and retry over an alternative path when the
// attempt times out (attemptTimeout), up to 1+Π attempts. A one-shot
// send (pendingSend) and a circuit setup (circPath) both ride it; they
// differ only in the onion they build and in how the run ends (the
// pathOwner methods). Streams that re-contact the same destination
// should ride the circuit layer (circuit.go), which falls back to
// one-shot sends.

// pathTry is the attempt state of one engine run: its start (the first
// attempt's launch), paths constructed, the (A, B) combinations spent,
// and the live attempt's timeout.
type pathTry struct {
	start    time.Duration
	attempts int
	triedA   map[identity.NodeID]bool
	triedB   map[identity.NodeID]bool
	timer    transport.Timer
}

func newPathTry(now time.Duration) pathTry {
	return pathTry{start: now, triedA: make(map[identity.NodeID]bool), triedB: make(map[identity.NodeID]bool)}
}

func (t *pathTry) try() *pathTry { return t }

// A pathOwner is what the engine opens paths for. Owners embed a
// pathTry, which supplies try.
type pathOwner interface {
	try() *pathTry
	// target is the destination the next attempt is built towards.
	target() Dest
	// seal builds this attempt's onion over hops (first mix a first,
	// the destination last) and returns the identifier the attempt
	// travels under.
	seal(w *WCL, a nylon.Descriptor, hops []crypt.Hop) (id uint64, onion []byte, err error)
	// launch returns the message that hands onion to the first mix over
	// the nylon relays via.
	launch(w *WCL, via []identity.NodeID, onion []byte) []byte
	// awaited reports whether the attempt's acknowledgement is still
	// due when its timeout fires.
	awaited(w *WCL) bool
	// giveUp ends the run without a path; noAlt when no untried (A, B)
	// combination remained.
	giveUp(w *WCL, noAlt bool)
}

// attempt constructs and launches one onion path for o.
func (w *WCL) attempt(o pathOwner) {
	t, dest := o.try(), o.target()
	a, middles, b, ok := w.pickMixes(dest, t.triedA, t.triedB)
	if !ok {
		o.giveUp(w, true)
		return
	}
	t.attempts++
	t.triedA[a.ID] = true
	t.triedB[b.ID] = true

	dAddr := encodeAddrID(dest.ID)
	if !dest.Endpoint.IsZero() {
		dAddr = encodeAddrEndpoint(dest.Endpoint, dest.ID)
	}
	hops := make([]crypt.Hop, 0, w.cfg.Mixes+1)
	hops = append(hops, crypt.Hop{Pub: w.node.Keys().Get(a.ID)})
	for _, m := range middles {
		hops = append(hops, crypt.Hop{Pub: m.Key, Addr: encodeAddrEndpoint(m.Endpoint, m.ID)})
	}
	hops = append(hops, crypt.Hop{Pub: b.Key, Addr: encodeAddrEndpoint(b.Endpoint, b.ID)})
	hops = append(hops, crypt.Hop{Pub: dest.Key, Addr: dAddr})
	start := time.Now()
	id, onion, err := o.seal(w, a, hops)
	buildTime := time.Since(start)
	w.buildMS.ObserveDuration(buildTime)
	w.Trace.Emit(obs.KindSend, w.rt.Now(), buildTime, len(onion), id)
	if err != nil {
		w.retry(o, id)
		return
	}
	via, routable := w.node.RouteTo(a)
	if !routable {
		w.retry(o, id)
		return
	}
	w.node.SendAppVia(a, via, o.launch(w, via, onion))
	t.timer = w.rt.After(w.attemptTimeout(t), func() {
		if o.awaited(w) {
			w.retry(o, id)
		}
	})
}

// attemptTimeout is how long t's live attempt waits for its
// acknowledgement. An attempt with another to follow waits pathTimeout
// until the node has measured an onion path, then the node's RTO capped
// at pathTimeout, with no backoff: each retry is a fresh (A, B) path.
// The last attempt waits until maxAttempts × pathTimeout after the
// first launch — the run's end had every attempt waited pathTimeout —
// so a late acknowledgement of an earlier attempt still completes it.
func (w *WCL) attemptTimeout(t *pathTry) time.Duration {
	if n := w.cfg.maxAttempts(); t.attempts >= n {
		return t.start + time.Duration(n)*pathTimeout - w.rt.Now()
	}
	if w.rtt.srtt == 0 {
		return pathTimeout
	}
	return min(pathTimeout, w.rtt.rto())
}

// sampleRTT feeds one round trip of an onion path to the node's
// estimator and its gauge. Callers apply Karn's rule.
func (w *WCL) sampleRTT(r time.Duration) {
	w.rtt.sample(r)
	obs.Set(&w.st.PathRTOMs, w.rtt.rto().Milliseconds())
}

// retry tries the next alternative for o or gives up; id is the
// identifier of the attempt that failed.
func (w *WCL) retry(o pathOwner, id uint64) {
	t := o.try()
	if t.timer != nil {
		t.timer.Cancel()
		t.timer = nil
	}
	if t.attempts >= w.cfg.maxAttempts() {
		o.giveUp(w, false)
		return
	}
	w.Trace.Emit(obs.KindRetry, w.rt.Now(), 0, 0, id)
	w.attempt(o)
}

// pickMixes chooses an untried (A, B) pair plus any extra middle
// mixes: A from the connection backlog (any node with a known key), B
// from the destination's helper set (or, for destinations that are
// themselves P-nodes, any P-node of the backlog), middles from the
// backlog's P-nodes. triedA/triedB carry the combinations already
// spent. Returns false when no untried combination remains.
func (w *WCL) pickMixes(dest Dest, triedA, triedB map[identity.NodeID]bool) (a nylon.Descriptor, middles []Helper, b Helper, ok bool) {
	rng := w.rt.Rand()
	exclude := map[identity.NodeID]bool{w.node.ID(): true, dest.ID: true}

	helpers := dest.Helpers
	if len(helpers) == 0 {
		// P-node destination: any backlog P-node with a known key works.
		for _, e := range w.cb.Publics() {
			if key := w.node.Keys().Get(e.Desc.ID); key != nil {
				helpers = append(helpers, Helper{ID: e.Desc.ID, Endpoint: e.Desc.Contact, Key: key})
			}
		}
	}
	var bs []Helper
	for _, h := range helpers {
		if h.Key != nil && !triedB[h.ID] && !exclude[h.ID] {
			bs = append(bs, h)
		}
	}
	// First mix: random entry from the freshest half of the backlog
	// (the most recently opened routes are the most likely to still be
	// warm under churn) with a known key. Prefer untried; fall back to
	// a previously tried A when fresh helpers remain, then to the
	// stale half.
	pickA := func(tried map[identity.NodeID]bool) (nylon.Descriptor, bool) {
		var fresh, stale []nylon.Descriptor
		entries := w.cb.Entries() // newest first
		for i, e := range entries {
			d := e.Desc
			if exclude[d.ID] || (tried != nil && tried[d.ID]) {
				continue
			}
			if w.node.Keys().Get(d.ID) == nil {
				continue
			}
			if i < (len(entries)+1)/2 {
				fresh = append(fresh, d)
			} else {
				stale = append(stale, d)
			}
		}
		if len(fresh) > 0 {
			return fresh[rng.Intn(len(fresh))], true
		}
		if len(stale) > 0 {
			return stale[rng.Intn(len(stale))], true
		}
		return nylon.Descriptor{}, false
	}

	if len(bs) == 0 {
		return a, nil, b, false
	}
	b = bs[rng.Intn(len(bs))]
	if a, ok = pickA(triedA); !ok {
		a, ok = pickA(nil) // reuse a tried A with a fresh B
	}
	if ok && a.ID == b.ID {
		// Avoid A == B: rescue-scan for a different A, preferring ones
		// not yet tried so the attempt budget is not spent re-testing a
		// mix already known to fail (and MixesTried stays honest).
		rescue := func(skipTried bool) (nylon.Descriptor, bool) {
			for _, e := range w.cb.Entries() {
				d := e.Desc
				if d.ID == b.ID || exclude[d.ID] || (skipTried && triedA[d.ID]) {
					continue
				}
				if w.node.Keys().Get(d.ID) == nil {
					continue
				}
				return d, true
			}
			return nylon.Descriptor{}, false
		}
		var found bool
		if a, found = rescue(true); !found {
			a, found = rescue(false)
		}
		if !found {
			return a, nil, b, false
		}
	}
	if !ok {
		return a, nil, b, false
	}
	// Extra middle mixes for longer paths: P-nodes from the backlog,
	// distinct from everything already on the path.
	if extra := w.cfg.Mixes - 2; extra > 0 {
		used := map[identity.NodeID]bool{a.ID: true, b.ID: true, dest.ID: true, w.node.ID(): true}
		for _, e := range w.cb.Publics() {
			if len(middles) == extra {
				break
			}
			d := e.Desc
			if used[d.ID] || d.Contact.IsZero() {
				continue
			}
			key := w.node.Keys().Get(d.ID)
			if key == nil {
				continue
			}
			used[d.ID] = true
			middles = append(middles, Helper{ID: d.ID, Endpoint: d.Contact, Key: key})
		}
		if len(middles) < extra {
			return a, nil, b, false // not enough distinct P-nodes yet
		}
		rng.Shuffle(len(middles), func(i, j int) { middles[i], middles[j] = middles[j], middles[i] })
	}
	return a, middles, b, true
}

// ─── The one-shot send ───

// pendingSend is one one-shot send in flight. Its path ID is drawn
// once per send and stays the same across attempts, so the exit
// delivers the payload exactly once whichever attempt arrives.
type pendingSend struct {
	pathTry
	pathID  uint64
	dest    Dest
	content []byte // AES-GCM under k
	key     []byte // k
	payload []byte
	done    func(Result)
}

// Send opens a confidential one-way route to dest and delivers payload
// over it. done (optional) receives the final Result. Content privacy
// comes from the AES encryption under a fresh key k; relationship
// anonymity from the onion path S → A → B → dest.
func (w *WCL) Send(dest Dest, payload []byte, done func(Result)) {
	obs.Inc(&w.st.Sent)
	if dest.Key == nil {
		w.failEarly(done)
		return
	}
	k, err := crypt.NewSymKey()
	if err != nil {
		w.failEarly(done)
		return
	}
	content, err := crypt.SealSymOnce(w.cpu, k, payload)
	if err != nil {
		w.failEarly(done)
		return
	}
	st := &pendingSend{
		pathTry: newPathTry(w.rt.Now()),
		pathID:  freshID(w, w.pending),
		dest:    dest,
		content: content,
		key:     k,
		payload: payload,
		done:    done,
	}
	w.pending[st.pathID] = st
	w.attempt(st)
}

func (st *pendingSend) target() Dest { return st.dest }

func (st *pendingSend) seal(w *WCL, _ nylon.Descriptor, hops []crypt.Hop) (uint64, []byte, error) {
	onion, err := crypt.BuildOnion(w.cpu, hops, st.key)
	return st.pathID, onion, err
}

func (st *pendingSend) launch(w *WCL, via []identity.NodeID, onion []byte) []byte {
	fwd := forwardMsg{PathID: st.pathID, From: w.node.ID(), ViaPath: via, Onion: onion, Content: st.content}
	return fwd.encode()
}

func (st *pendingSend) awaited(w *WCL) bool {
	_, live := w.pending[st.pathID]
	return live
}

func (st *pendingSend) giveUp(w *WCL, noAlt bool) { w.finishResult(st, Failed, noAlt) }

// failEarly reports a send that failed before any path state existed:
// no path ID was drawn, no attempt launched, no trace event emitted.
// The throwaway state's zero pathID keeps finishResult's ownership
// guard from touching any live entry, and its fresh start keeps
// Elapsed at zero. Exactly one Result reaches done and OnResult.
func (w *WCL) failEarly(done func(Result)) {
	w.finishResult(&pendingSend{pathTry: pathTry{start: w.rt.Now()}, done: done}, Failed, true)
}

// freshID draws a fresh path or circuit identifier, skipping the keys
// of inFlight so a collision cannot alias two live entries. Zero is
// reserved: it is the pathID of the throwaway state of a send that
// fails before a path exists.
func freshID[V any](w *WCL, inFlight map[uint64]V) uint64 {
	for {
		id := w.rt.Rand().Uint64()
		if id == 0 {
			continue
		}
		if _, used := inFlight[id]; used {
			continue
		}
		return id
	}
}

func (w *WCL) finishResult(st *pendingSend, outcome Outcome, noAlt bool) {
	if st.timer != nil {
		st.timer.Cancel()
	}
	// Only remove the entry this exact send owns: early-failure sends
	// carry a throwaway state whose zero pathID must not evict (and a
	// stale timer must not double-finish) a live entry under that key.
	if cur, ok := w.pending[st.pathID]; ok && cur == st {
		delete(w.pending, st.pathID)
	}
	switch {
	case outcome == Success:
		obs.Inc(&w.st.FirstTrySuccess)
	case outcome == AltSuccess:
		obs.Inc(&w.st.AltSuccess)
	default:
		obs.Inc(&w.st.Failed)
		if noAlt {
			obs.Inc(&w.st.NoAltFailed)
		}
	}
	obs.Add(&w.st.MixesTriedSum, uint64(len(st.triedA)))
	obs.Add(&w.st.HelpersTriedSum, uint64(len(st.triedB)))
	r := Result{
		Outcome:       outcome,
		NoAlternative: noAlt,
		Attempts:      st.attempts,
		MixesTried:    len(st.triedA),
		HelpersTried:  len(st.triedB),
		Elapsed:       w.rt.Now() - st.start,
	}
	w.elapsedMS.ObserveDuration(r.Elapsed)
	w.report(st.dest.ID, st.done, r)
}

// report hands the final Result of one send to OnResult and to its done
// callback.
func (w *WCL) report(dest identity.NodeID, done func(Result), r Result) {
	if w.OnResult != nil {
		w.OnResult(dest, r)
	}
	if done != nil {
		done(r)
	}
}
