package wcl

import (
	"time"

	"whisper/internal/crypt"
	"whisper/internal/identity"
	"whisper/internal/nylon"
	"whisper/internal/obs"
	"whisper/internal/transport"
)

// Source-side one-shot path engine: every Send pays full path
// selection and onion construction. Streams that re-contact the same
// destination should ride the circuit layer instead (circuit.go),
// which also uses this engine as its retry fallback.

type pendingSend struct {
	pathID   uint64
	dest     Dest
	content  []byte // AES-GCM under k
	key      []byte // k
	payload  []byte
	start    time.Duration
	attempts int
	triedA   map[identity.NodeID]bool
	triedB   map[identity.NodeID]bool
	timer    transport.Timer
	done     func(Result)
}

// Send opens a confidential one-way route to dest and delivers payload
// over it. done (optional) receives the final Result. Content privacy
// comes from the AES encryption under a fresh key k; relationship
// anonymity from the onion path S → A → B → dest. When Config.Circuits
// is set the send rides the circuit layer instead (one-shot remains
// the fallback there).
func (w *WCL) Send(dest Dest, payload []byte, done func(Result)) {
	if w.cfg.Circuits {
		w.SendCircuit(dest, payload, done)
		return
	}
	w.sendOneShot(dest, payload, done)
}

func (w *WCL) sendOneShot(dest Dest, payload []byte, done func(Result)) {
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
		pathID:  w.newPathID(),
		dest:    dest,
		content: content,
		key:     k,
		payload: payload,
		start:   w.rt.Now(),
		triedA:  make(map[identity.NodeID]bool),
		triedB:  make(map[identity.NodeID]bool),
		done:    done,
	}
	w.pending[st.pathID] = st
	w.attempt(st)
}

// failEarly reports a send that failed before any path state existed:
// no path ID was drawn, no attempt launched, no trace event emitted.
// The throwaway state's zero pathID keeps finishResult's ownership
// guard from touching any live entry, and its fresh start keeps
// Elapsed at zero. Exactly one Result reaches done and OnResult.
func (w *WCL) failEarly(done func(Result)) {
	w.finishResult(&pendingSend{done: done, start: w.rt.Now()}, Failed, true)
}

// newPathID draws a fresh path identifier. Zero is reserved (it is the
// pathID of the throwaway state used for sends that fail before a path
// exists), and identifiers of in-flight sends are skipped so a
// collision cannot alias two pending entries.
func (w *WCL) newPathID() uint64 {
	for {
		id := w.rt.Rand().Uint64()
		if id == 0 {
			continue
		}
		if _, inFlight := w.pending[id]; inFlight {
			continue
		}
		return id
	}
}

// pickMixes chooses an untried (A, B) pair plus any extra middle
// mixes: A from the connection backlog (any node with a known key), B
// from the destination's helper set (or, for destinations that are
// themselves P-nodes, any P-node of the backlog), middles from the
// backlog's P-nodes. triedA/triedB carry the combinations already
// spent (one-shot attempts and circuit setups share this engine).
// Returns false when no untried combination remains.
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

// attempt constructs and launches one onion path for st.
func (w *WCL) attempt(st *pendingSend) {
	a, middles, b, ok := w.pickMixes(st.dest, st.triedA, st.triedB)
	if !ok {
		w.finishResult(st, Failed, true)
		return
	}
	st.attempts++
	st.triedA[a.ID] = true
	st.triedB[b.ID] = true

	aKey := w.node.Keys().Get(a.ID)
	dAddr := encodeAddrID(st.dest.ID)
	if !st.dest.Endpoint.IsZero() {
		dAddr = encodeAddrEndpoint(st.dest.Endpoint, st.dest.ID)
	}
	hops := make([]crypt.Hop, 0, w.cfg.Mixes+1)
	hops = append(hops, crypt.Hop{Pub: aKey})
	for _, m := range middles {
		hops = append(hops, crypt.Hop{Pub: m.Key, Addr: encodeAddrEndpoint(m.Endpoint, m.ID)})
	}
	hops = append(hops, crypt.Hop{Pub: b.Key, Addr: encodeAddrEndpoint(b.Endpoint, b.ID)})
	hops = append(hops, crypt.Hop{Pub: st.dest.Key, Addr: dAddr})
	start := time.Now()
	onion, err := crypt.BuildOnion(w.cpu, hops, st.key)
	buildTime := time.Since(start)
	w.buildMS.ObserveDuration(buildTime)
	w.Trace.Emit(obs.KindSend, w.rt.Now(), buildTime, len(onion), st.pathID)
	if err != nil {
		w.retry(st)
		return
	}
	via, routable := w.node.RouteTo(a)
	if !routable {
		w.retry(st)
		return
	}
	fwd := forwardMsg{PathID: st.pathID, From: w.node.ID(), ViaPath: via, Onion: onion, Content: st.content}
	w.node.SendAppVia(a, via, fwd.encode())
	st.timer = w.rt.After(w.cfg.PathTimeout, func() {
		if _, live := w.pending[st.pathID]; live {
			w.retry(st)
		}
	})
}

// retry tries the next alternative or gives up.
func (w *WCL) retry(st *pendingSend) {
	if st.timer != nil {
		st.timer.Cancel()
	}
	if st.attempts >= w.cfg.MaxAttempts {
		w.finishResult(st, Failed, false)
		return
	}
	w.Trace.Emit(obs.KindRetry, w.rt.Now(), 0, 0, st.pathID)
	w.attempt(st)
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
	if w.OnResult != nil {
		w.OnResult(st.dest.ID, r)
	}
	if st.done != nil {
		st.done(r)
	}
}
