package wcl

import (
	"sort"
	"time"

	"whisper/internal/obs"
	"whisper/internal/transport"
)

// The stream layer. Circuit.SendStream turns a circuit into a true
// stream transport for arbitrary-size payloads: the message is split
// into DefaultStreamFragSize fragments, each riding one data cell
// (cellStream), governed by a per-stream sliding send window with
// cumulative + selective acknowledgements (streamAckMsg). The exit
// reassembles and delivers the complete message exactly once.
//
// Reliability is the stream's own: fragment cells bypass the per-cell
// pendingCells tracking (the exit sends stream acks, not cell acks,
// for them), so the window — not a per-cell timer — paces the flow.
// A retransmission timer re-sends the unacknowledged tail in
// ascending fragment order; streamRetries consecutive rounds without
// any acked progress declare the path broken and the whole message
// falls back to one one-shot send (same at-least-once caveat across
// catastrophic path failure as the cell layer's fallback). Fragment
// acks feed the path's RTT estimator, which the cells share; Karn's
// rule applies: retransmitted fragments never produce an RTT sample.
// Unlike a data cell, a fragment is retransmitted under a fresh seq.
//
// Rotation-drain rule: a stream message is pinned to the circPath its
// first fragment used and always finishes there. Rotation (and path
// retirement generally) waits for pathDrained — no pending cells AND
// no pinned stream — so the exit's per-circuit (circID, seq) dedup
// always covers a whole message. New stream messages start only on a
// path that is not due for rotation.
//
// Backpressure: one stream is active per circuit; up to streamQueueMax
// further messages queue behind it, and overflow is shed immediately
// with ErrStreamBacklog in Result.Err — bounded memory, explicit
// refusal, never silent unbounded buffering.

// streamRecvMax bounds the exit-side reassembly table (entries beyond
// it evict oldest-first, deterministically).
const streamRecvMax = 256

// streamDupAckThreshold is how many consecutive acknowledgements must
// report the same hole before it is fast-retransmitted (TCP's
// dup-ack rule: a single report is usually just ack reordering).
const streamDupAckThreshold = 3

// streamSend is the source-side state of one in-flight stream message.
type streamSend struct {
	c    *Circuit
	path *circPath // pinned at activation; the message finishes here

	id      uint64
	payload []byte
	frags   int

	sent   []bool // fragment ever launched
	acked  []bool
	retx   []bool          // retransmitted at least once (Karn: no RTT sample)
	sentAt []time.Duration // last launch time, for RTT samples

	cum      int // contiguous acked prefix length
	ackedN   int // total acked
	next     int // next never-sent fragment
	inflight int // launched, unacked (window + gauge occupancy)

	rounds   int  // consecutive timer rounds without progress
	progress bool // acked progress since the last timer round
	fastRetx int  // hole index already fast-retransmitted (-1: none)
	holeAt   int  // hole index currently under observation
	holeSeen int  // consecutive acks that reported holeAt

	timer    transport.Timer
	start    time.Duration
	finished bool
	done     func(Result)
}

func (s *streamSend) fragData(i int) []byte {
	lo := i * DefaultStreamFragSize
	hi := lo + DefaultStreamFragSize
	if hi > len(s.payload) {
		hi = len(s.payload)
	}
	return s.payload[lo:hi]
}

// SendStream sends payload over the circuit as a fragmented,
// windowed, reliably-acknowledged stream message, reassembled and
// delivered in one piece at the destination. Messages queue behind
// the active one up to streamQueueMax; overflow is refused with
// Result.Err = ErrStreamBacklog (and oversized payloads with
// ErrStreamTooLarge). done (optional) observes the final Result
// exactly once in every case.
func (c *Circuit) SendStream(payload []byte, done func(Result)) {
	w := c.w
	if c.closed {
		w.Send(c.dest, payload, done)
		return
	}
	nf := (len(payload) + DefaultStreamFragSize - 1) / DefaultStreamFragSize
	if nf == 0 {
		nf = 1 // an empty message still travels as one fragment
	}
	if nf > maxStreamFrags {
		w.shedStream(c, payload, done, ErrStreamTooLarge)
		return
	}
	if len(c.streamQ) >= streamQueueMax {
		w.shedStream(c, payload, done, ErrStreamBacklog)
		return
	}
	now := w.rt.Now()
	c.lastUsed = now
	w.streamSeq++
	s := &streamSend{
		c:        c,
		id:       w.streamSeq,
		payload:  payload,
		frags:    nf,
		sent:     make([]bool, nf),
		acked:    make([]bool, nf),
		retx:     make([]bool, nf),
		sentAt:   make([]time.Duration, nf),
		fastRetx: -1,
		start:    now,
		done:     done,
	}
	c.streamQ = append(c.streamQ, s)
	obs.Inc(&w.st.StreamsSent)
	if c.cur == nil && c.opening == nil {
		w.openPath(c)
		if c.closed {
			return // synchronous setup failure already drained the queue
		}
	}
	w.startStreams(c)
}

// SendStream is the destination-keyed convenience: it opens (or
// reuses) the circuit to dest and streams payload over it.
// Destinations without a known key fall back to the one-shot engine.
func (w *WCL) SendStream(dest Dest, payload []byte, done func(Result)) {
	if dest.Key == nil {
		w.Send(dest, payload, done)
		return
	}
	w.OpenCircuit(dest).SendStream(payload, done)
}

// shedStream refuses a SendStream locally (backpressure or size): no
// network traffic, the error travels in Result.Err.
func (w *WCL) shedStream(c *Circuit, payload []byte, done func(Result), err error) {
	obs.Inc(&w.st.StreamsShed)
	w.report(c.dest.ID, done, Result{Outcome: Failed, Err: err})
}

// startStreams activates the next queued stream message on the
// circuit's established path — the message boundary where rotation is
// allowed to fire: a path due for rotation gets its replacement opened
// and the message waits for it (the rotation-drain rule).
func (w *WCL) startStreams(c *Circuit) {
	p := c.cur
	if p == nil || p.closed || p.stream != nil || len(c.streamQ) == 0 {
		return
	}
	if w.needsRotation(p, w.rt.Now()) {
		if c.opening == nil {
			obs.Inc(&w.st.CircuitsRotated)
			w.openPath(c)
		}
		return
	}
	s := c.streamQ[0]
	c.streamQ = c.streamQ[1:]
	p.stream = s
	s.path = p
	w.pumpStream(s)
	if !s.finished {
		w.armStreamTimer(s)
	}
}

// pumpStream launches fragments until the window is full or the
// message is fully on the wire.
func (w *WCL) pumpStream(s *streamSend) {
	for s.inflight < streamWindow && s.next < s.frags {
		i := s.next
		s.next++
		if !w.sendStreamFrag(s, i) {
			return
		}
	}
}

// sendStreamFrag seals and launches fragment i on the stream's pinned
// path, copying the fragment's bytes once — from the message into the
// buffer that travels to the exit. Returns false when the path broke
// (the stream has already fallen back).
func (w *WCL) sendStreamFrag(s *streamSend, i int) bool {
	p := s.path
	f := streamFrag{StreamID: s.id, Frag: uint32(i), FragCount: uint32(s.frags), Data: s.fragData(i)}
	start := time.Now()
	cw := newCellWriter(len(p.keys), 1+streamFragHeader+len(f.Data))
	cw.U8(cellStream)
	f.writeTo(cw)
	err := sealCell(w.cpu, p.keys, cw)
	sealDur := time.Since(start)
	if err != nil {
		w.streamBroken(s)
		return false
	}
	via, ok := w.node.RouteTo(p.first)
	if !ok {
		w.streamBroken(s)
		return false
	}
	p.seq++
	p.cells++
	obs.Inc(&w.st.CellsSent)
	obs.Inc(&w.st.StreamFragsSent)
	w.Trace.Emit(obs.KindCellSend, w.rt.Now(), sealDur, cw.Len(), p.id)
	w.node.SendAppVia(p.first, via, frameCircData(cw, p.id, p.seq))
	s.c.lastSent = w.rt.Now()
	if !s.sent[i] {
		s.sent[i] = true
		s.inflight++
		obs.Add(&w.st.StreamWindow, 1)
	}
	s.sentAt[i] = w.rt.Now()
	return true
}

// armStreamTimer schedules the stream's retransmission round.
func (w *WCL) armStreamTimer(s *streamSend) {
	s.timer = w.rt.After(pathTimeout, func() {
		s.timer = nil
		if s.finished || s.path == nil || s.path.stream != s {
			return
		}
		w.streamTimerFire(s)
	})
}

// streamTimerFire runs one retransmission round: re-send every
// launched-but-unacked fragment in ascending order, and give the path
// up after streamRetries consecutive rounds with no acked progress.
func (w *WCL) streamTimerFire(s *streamSend) {
	if s.progress {
		s.rounds = 0
	} else {
		s.rounds++
	}
	s.progress = false
	if s.rounds >= streamRetries {
		w.streamBroken(s)
		return
	}
	for i := s.cum; i < s.next; i++ {
		if s.acked[i] {
			continue
		}
		s.retx[i] = true
		obs.Inc(&w.st.StreamRetransmits)
		if !w.sendStreamFrag(s, i) {
			return
		}
	}
	if !s.finished {
		w.armStreamTimer(s)
	}
}

// handleCircStreamAck applies a stream acknowledgement at the source,
// or relays it backward along the stored reverse routing.
func (w *WCL) handleCircStreamAck(m streamAckMsg) {
	if p := w.circByID[m.CircID]; p != nil {
		if s := p.stream; s != nil && s.id == m.StreamID && !s.finished {
			w.streamAcked(s, m)
		}
		return
	}
	if e := w.relayCirc.get(m.CircID, w.rt.Now()); e != nil {
		w.sendBack(e.back, m.CircID, m.encode())
	}
}

// streamAcked folds one cumulative+selective acknowledgement into the
// send state: newly covered fragments leave the window (sampling RTT
// unless retransmitted — Karn's rule), a reported hole with later
// fragments acked triggers one fast retransmit, and a fully covered
// message finishes.
func (w *WCL) streamAcked(s *streamSend, m streamAckMsg) {
	now := w.rt.Now()
	rtt := &s.path.rtt
	ackFrag := func(i int) {
		if i >= s.frags || s.acked[i] {
			return
		}
		s.acked[i] = true
		s.ackedN++
		s.progress = true
		if s.sent[i] && s.inflight > 0 {
			s.inflight--
			obs.Add(&w.st.StreamWindow, -1)
		}
		if !s.retx[i] {
			sample := now - s.sentAt[i]
			w.streamRTT.ObserveDuration(sample)
			rtt.sample(sample)
		}
	}
	cum := int(m.Cum)
	if cum > s.frags {
		cum = s.frags
	}
	for i := 0; i < cum; i++ {
		ackFrag(i)
	}
	for k := 0; k < 64; k++ {
		if m.Bits&(1<<uint(k)) != 0 {
			ackFrag(cum + 1 + k)
		}
	}
	for s.cum < s.frags && s.acked[s.cum] {
		s.cum++
	}
	if s.cum >= s.frags {
		w.finishStream(s)
		return
	}
	// Fast retransmit: the receiver keeps reporting a hole at s.cum
	// while later fragments arrive. The network reorders datagrams
	// freely, so a hole alone is not evidence of loss — require both
	// streamDupAckThreshold consecutive reports AND the hole's launch
	// to be older than 1.5x the path's smoothed RTT (RACK-style) before
	// re-sending it ahead of the timer round.
	if hole := s.cum; hole < s.next && s.ackedN > hole && s.fastRetx != hole {
		if hole != s.holeAt {
			s.holeAt, s.holeSeen = hole, 0
		}
		s.holeSeen++
		if s.holeSeen >= streamDupAckThreshold && rtt.srtt > 0 && now-s.sentAt[hole] > rtt.srtt*3/2 {
			s.fastRetx = hole
			s.retx[hole] = true
			obs.Inc(&w.st.StreamRetransmits)
			if !w.sendStreamFrag(s, hole) {
				return
			}
		}
	}
	w.pumpStream(s)
}

// finishStream completes a fully acknowledged stream message: the
// Result fires, the path unpins (closing paths retire once drained),
// and the next queued message starts.
func (w *WCL) finishStream(s *streamSend) {
	if !w.endStream(s) {
		return
	}
	p, c := s.path, s.c
	w.report(c.dest.ID, s.done, Result{Outcome: Success, Attempts: 1, Elapsed: w.rt.Now() - s.start})
	if p != nil && p.closing && !p.closed && w.pathDrained(p) {
		w.closePath(p, true)
	}
	if !c.closed {
		w.startStreams(c)
	}
}

// streamFallback re-sends the whole message through the one-shot
// engine — the stream's terminal failure path (path broken, rotation
// replacement failed). done fires from the one-shot machinery.
func (w *WCL) streamFallback(s *streamSend) {
	if !w.endStream(s) {
		return
	}
	obs.Inc(&w.st.StreamFallbacks)
	w.Send(s.c.dest, s.payload, s.done)
}

// endStream retires s, finished or fallen back: its timer stops, its
// path unpins and its fragments leave the window gauge. False when s
// had already ended.
func (w *WCL) endStream(s *streamSend) bool {
	if s.finished {
		return false
	}
	s.finished = true
	if s.timer != nil {
		s.timer.Cancel()
		s.timer = nil
	}
	if p := s.path; p != nil && p.stream == s {
		p.stream = nil
	}
	obs.Add(&w.st.StreamWindow, -int64(s.inflight))
	s.inflight = 0
	return true
}

// streamBroken handles a path evidently broken mid-stream: the message
// falls back whole, the path tears down, and — queued work permitting
// — a replacement path starts establishing.
func (w *WCL) streamBroken(s *streamSend) {
	p := s.path
	c := s.c
	w.streamFallback(s)
	if p != nil && !p.closed {
		w.closePath(p, false)
	}
	if !c.closed && c.cur == nil && c.opening == nil && (len(c.streamQ) > 0 || len(c.queue) > 0) {
		w.openPath(c)
	}
}

// pathDrained reports whether p carries no in-flight work: the
// condition rotation and retirement wait for, so a fragmented message
// never splits across circuits (the rotation-drain rule).
func (w *WCL) pathDrained(p *circPath) bool {
	return len(p.pendingCells) == 0 && p.stream == nil
}

// sortedSeqs returns the pending-cell sequence numbers in ascending
// order. Draining through this keeps teardown deterministic — Go map
// iteration order must never decide the order user payloads re-send
// in (it once did; fixed, regression-pinned).
func sortedSeqs(m map[uint64]*pendingCell) []uint64 {
	seqs := make([]uint64, 0, len(m))
	for seq := range m {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

// ─── Exit-side reassembly ───

// streamKey identifies one stream message's reassembly state.
type streamKey struct{ circ, stream uint64 }

// streamRecvState reassembles one stream message at the exit. frags
// holds the fragments where they arrived — sub-slices of the datagrams
// this node was handed and owns — until the one copy into the complete
// message. After delivery the fragment data is freed but the entry is
// retained (with delivered set) so late retransmits are re-acknowledged
// as fully received rather than re-collected.
type streamRecvState struct {
	frags     [][]byte
	have      []bool
	cum       int // contiguous received prefix length
	haveN     int
	total     int
	delivered bool
	lastSeen  time.Duration
}

// handleStreamFrag processes one stream-fragment cell at the exit:
// collect, acknowledge the current cumulative+selective state, and
// deliver the reassembled message exactly once when complete.
func (w *WCL) handleStreamFrag(e *relayCircuit, f streamFrag) {
	now := w.rt.Now()
	k := streamKey{e.id, f.StreamID}
	st := w.streamRecv[k]
	if st == nil {
		w.pruneStreamRecv(now)
		st = &streamRecvState{
			frags: make([][]byte, f.FragCount),
			have:  make([]bool, f.FragCount),
			total: int(f.FragCount),
		}
		w.streamRecv[k] = st
	}
	st.lastSeen = now
	i := int(f.Frag)
	if int(f.FragCount) != st.total || i >= st.total {
		// Inconsistent with the state this stream established — a
		// corrupt or forged fragment. Drop without acknowledging.
		obs.Inc(&w.st.PeelErrors)
		return
	}
	if st.delivered || st.have[i] {
		obs.Inc(&w.st.DupStreamFrags)
		w.sendStreamAck(e, f.StreamID, st)
		return
	}
	st.have[i] = true
	st.frags[i] = f.Data
	st.haveN++
	obs.Inc(&w.st.StreamFragsRecv)
	for st.cum < st.total && st.have[st.cum] {
		st.cum++
	}
	if st.haveN == st.total {
		st.delivered = true
		size := 0
		for _, fr := range st.frags {
			size += len(fr)
		}
		buf := make([]byte, 0, size)
		for _, fr := range st.frags {
			buf = append(buf, fr...)
		}
		st.frags = nil // reassembly buffers freed; delivered entry re-acks
		obs.Inc(&w.st.StreamsDelivered)
		w.streamBytes.Observe(float64(size))
		w.Trace.Emit(obs.KindCellDeliver, now, 0, size, e.id)
		if w.OnReceive != nil {
			w.OnReceive(buf)
		}
	}
	w.sendStreamAck(e, f.StreamID, st)
}

// streamReAck answers a deduplicated (replayed) fragment cell: the
// content was already processed under its original seq, so only the
// acknowledgement is repeated — and only when reassembly state still
// exists (recreating state from a replay could double-deliver).
func (w *WCL) streamReAck(e *relayCircuit, streamID uint64) {
	if st := w.streamRecv[streamKey{e.id, streamID}]; st != nil {
		obs.Inc(&w.st.DupStreamFrags)
		st.lastSeen = w.rt.Now()
		w.sendStreamAck(e, streamID, st)
	}
}

// sendStreamAck emits the stream's current cumulative + selective
// acknowledgement backward along the circuit.
func (w *WCL) sendStreamAck(e *relayCircuit, streamID uint64, st *streamRecvState) {
	cum := st.cum
	var bits uint64
	for k := 0; k < 64; k++ {
		i := cum + 1 + k
		if i >= st.total {
			break
		}
		if st.have[i] {
			bits |= 1 << uint(k)
		}
	}
	m := streamAckMsg{CircID: e.id, StreamID: streamID, Cum: uint32(cum), Bits: bits}
	w.sendBack(e.back, m.CircID, m.encode())
}

// pruneStreamRecv expires stale reassembly state and, past the bound,
// evicts oldest-first with a deterministic tie-break — reassembly
// never outlives the relay circuit entry (circuitTTL) and never grows
// past streamRecvMax entries.
func (w *WCL) pruneStreamRecv(now time.Duration) {
	//whisper:unordered delete-only: each expired entry goes whatever the order
	for k, st := range w.streamRecv {
		if now-st.lastSeen > circuitTTL {
			delete(w.streamRecv, k)
		}
	}
	for len(w.streamRecv) >= streamRecvMax {
		var victim streamKey
		first := true
		var oldest time.Duration
		//whisper:unordered the minimum of the total order (lastSeen, circ, stream) is the same in any order
		for k, st := range w.streamRecv {
			if first || st.lastSeen < oldest ||
				(st.lastSeen == oldest && (k.circ < victim.circ || (k.circ == victim.circ && k.stream < victim.stream))) {
				first = false
				oldest = st.lastSeen
				victim = k
			}
		}
		delete(w.streamRecv, victim)
	}
}

// dropStreamRecv forgets all reassembly state of one circuit (its
// relay entry was torn down).
func (w *WCL) dropStreamRecv(circID uint64) {
	//whisper:unordered delete-only: each of the circuit's entries goes whatever the order
	for k := range w.streamRecv {
		if k.circ == circID {
			delete(w.streamRecv, k)
		}
	}
}
