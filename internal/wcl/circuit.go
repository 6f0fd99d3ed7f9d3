package wcl

import (
	"container/list"
	"time"

	"whisper/internal/crypt"
	"whisper/internal/identity"
	"whisper/internal/nylon"
	"whisper/internal/obs"
	"whisper/internal/transport"
	"whisper/internal/wire"
)

// The circuit layer. A Circuit amortizes the onion cost of §III-A over
// a stream of messages to one destination: establishment runs once
// over the one-shot machinery (path selection, RSA per hop) and
// distributes HKDF-derived per-hop symmetric keys via the setup onion;
// after that every Circuit.Send is a data cell — one AEAD layer per
// hop, zero RSA anywhere on the path.
//
// Source-side state machine, per underlying path:
//
//	opening ──ack──▶ established ──rotation/idle/Close──▶ closed
//	   │                  │
//	   └─attempts──▶ failed (queued cells fall back to one-shot)
//	                      └─cell timeout──▶ broken (in-flight cells
//	                                         fall back to one-shot)
//
// Each path keeps one RTT estimator (rttEstimator), fed by the setup
// handshake, cell acks and stream-fragment acks. An unacknowledged cell
// is re-sealed and re-sent on its own path under its own (circID, seq)
// every RTO — the exit's cell dedup re-acks a repeat and never
// re-delivers it — until pathTimeout after its first send; a cell still
// unacknowledged then is the cell timeout above.
//
// A Circuit outlives its paths: rotation (max age or max cells) opens
// a replacement path while the old one keeps carrying traffic, then
// retires it once its in-flight cells drain. Keepalive pings keep the
// relay tables of quiet circuits warm; a circuit idle for longer than
// circuitIdle is torn down entirely.
//
// Relay-side state is a bounded LRU table keyed by circuit ID: the
// hop's cell key plus forward/backward routing captured at setup.
// Entries expire circuitTTL after last use and the oldest entry is
// evicted beyond circuitTableMax — a lost entry only degrades the
// source to one-shot fallback.

// circuitQueueMax bounds cells buffered while a circuit establishes;
// overflow falls back to one-shot sends.
const circuitQueueMax = 128

// pendingCell is one unacknowledged data or keepalive cell.
type pendingCell struct {
	payload []byte
	ping    bool
	retx    bool          // re-sent at least once (Karn: no RTT sample)
	start   time.Duration // application send (Result.Elapsed)
	sentAt  time.Duration // first send on the path (RTT sample, deadline)
	timer   transport.Timer
	done    func(Result)
}

// rtoFloor is the least retransmission timeout: far above a LAN's RTT
// (no spurious copies there) and above the fault model's 100 ms reorder
// jitter.
const rtoFloor = 200 * time.Millisecond

// rttEstimator is RFC 6298's smoothed round-trip time and its mean
// deviation, for one path. Callers apply Karn's rule: a sample is only
// taken from a message that was sent once.
type rttEstimator struct {
	srtt, rttvar time.Duration // srtt 0: nothing measured yet
}

func (e *rttEstimator) sample(r time.Duration) {
	if e.srtt == 0 {
		e.srtt, e.rttvar = r, r/2
		return
	}
	d := e.srtt - r
	if d < 0 {
		d = -d
	}
	e.rttvar = (3*e.rttvar + d) / 4
	e.srtt = (7*e.srtt + r) / 8
}

// rto is SRTT + 4·RTTVAR, at least rtoFloor.
func (e *rttEstimator) rto() time.Duration {
	return max(rtoFloor, e.srtt+4*e.rttvar)
}

// circPath is one established (or establishing) onion path of a
// circuit: its wire identifier, the per-hop cell keys, and the
// in-flight cell window. Its setup rides the path-attempt engine
// (send.go) through the embedded pathTry.
type circPath struct {
	pathTry
	c *Circuit

	id    uint64
	keys  [][]byte
	first nylon.Descriptor // first mix A

	established   bool
	closing       bool // retired by rotation, draining in-flight cells
	closed        bool
	establishedAt time.Duration

	cells        int    // data cells sent (rotation budget)
	seq          uint64 // last cell sequence number issued
	pendingCells map[uint64]*pendingCell
	stream       *streamSend // active stream message pinned to this path
	rtt          rttEstimator
	setupAt      time.Duration // launch of the current setup attempt (first RTT sample)
}

// Circuit is a reusable confidential session to one destination. It is
// obtained from OpenCircuit (or used through SendCircuit and
// SendStream) and must only be used from the node's dispatch context,
// like every other WCL entry point.
type Circuit struct {
	w    *WCL
	dest Dest

	cur     *circPath // established path carrying traffic
	old     *circPath // retired path draining in-flight cells
	opening *circPath // replacement or initial path being set up

	queue    []*pendingCell // cells awaiting establishment
	streamQ  []*streamSend  // stream messages behind the active one
	lastUsed time.Duration  // last application send
	lastSent time.Duration  // last cell of any kind (keepalive decision)
	keep     transport.Timer
	closed   bool
}

// OpenCircuit returns the circuit to dest, creating it (idle, not yet
// establishing) if none exists. An existing circuit's destination info
// is refreshed, so callers can pass ever-fresher helper sets.
func (w *WCL) OpenCircuit(dest Dest) *Circuit {
	if c, ok := w.circuits[dest.ID]; ok && !c.closed {
		if dest.Key != nil {
			c.dest = dest
		}
		return c
	}
	c := &Circuit{w: w, dest: dest, lastUsed: w.rt.Now()}
	w.circuits[dest.ID] = c
	return c
}

// SendCircuit sends payload over the circuit to dest, establishing one
// on first use (Send is the one-shot send). Destinations without a
// known key fail through the one-shot path for identical accounting.
func (w *WCL) SendCircuit(dest Dest, payload []byte, done func(Result)) {
	if dest.Key == nil {
		w.Send(dest, payload, done)
		return
	}
	w.OpenCircuit(dest).Send(payload, done)
}

// HasCircuit reports whether an established circuit to id exists —
// what the PPSS checks to transparently prefer a circuit.
func (w *WCL) HasCircuit(id identity.NodeID) bool {
	c, ok := w.circuits[id]
	return ok && !c.closed && c.cur != nil
}

// Send delivers payload over the circuit: as a data cell when a path
// is established, queued during establishment, and through the
// one-shot engine when the circuit cannot serve it (closed, setup
// failed, queue full). done (optional) receives the final Result
// exactly once in every case.
func (c *Circuit) Send(payload []byte, done func(Result)) {
	w := c.w
	if c.closed {
		w.Send(c.dest, payload, done)
		return
	}
	now := w.rt.Now()
	c.lastUsed = now
	if p := c.cur; p != nil {
		if c.opening == nil && w.needsRotation(p, now) {
			obs.Inc(&w.st.CircuitsRotated)
			w.openPath(c)
		}
		w.sendCell(c, p, &pendingCell{payload: payload, done: done, start: now})
		return
	}
	if c.opening == nil {
		w.openPath(c)
	}
	if c.closed || c.opening == nil || len(c.queue) >= circuitQueueMax {
		// Setup failed synchronously (no usable mixes at all), or the
		// establishment queue is full.
		w.Send(c.dest, payload, done)
		return
	}
	c.queue = append(c.queue, &pendingCell{payload: payload, done: done, start: now})
}

// Close tears the circuit down: in-flight cells fall back to one-shot
// sends, relays are told to drop their entries, and the handle is
// forgotten so a later Send starts fresh.
func (c *Circuit) Close() {
	w := c.w
	if c.closed {
		return
	}
	if c.opening != nil {
		w.closePath(c.opening, false)
	}
	if c.old != nil {
		w.closePath(c.old, true)
	}
	if c.cur != nil {
		w.closePath(c.cur, true)
	}
	w.drainQueues(c)
	w.dropCircuit(c)
}

// drainQueues hands the cells queued during establishment and the
// waiting stream messages of c to the one-shot engine.
func (w *WCL) drainQueues(c *Circuit) {
	q := c.queue
	c.queue = nil
	for _, cell := range q {
		w.Send(c.dest, cell.payload, cell.done)
	}
	sq := c.streamQ
	c.streamQ = nil
	for _, s := range sq {
		w.streamFallback(s)
	}
}

func (w *WCL) needsRotation(p *circPath, now time.Duration) bool {
	return p.cells >= circuitMaxCells || now-p.establishedAt >= circuitMaxAge
}

// openPath starts establishing a (new or replacement) path for c.
func (w *WCL) openPath(c *Circuit) {
	p := &circPath{
		pathTry:      newPathTry(w.rt.Now()),
		c:            c,
		pendingCells: make(map[uint64]*pendingCell),
	}
	c.opening = p
	obs.Inc(&w.st.CircuitsOpened)
	w.attempt(p)
}

func (p *circPath) target() Dest { return p.c.dest }

// seal builds one setup onion for p. Every attempt draws a fresh
// circuit ID and session secret: the keys are bound to the onion, so a
// late acknowledgement of an earlier attempt must not be confused with
// the current one (stale attempts' relay entries simply expire).
func (p *circPath) seal(w *WCL, a nylon.Descriptor, hops []crypt.Hop) (uint64, []byte, error) {
	secret, err := crypt.NewCircuitSecret()
	if err != nil {
		return p.id, nil, err
	}
	keys, err := crypt.DeriveCircuitKeys(secret, len(hops))
	if err != nil {
		return p.id, nil, err
	}
	chops := make([]crypt.CircuitHop, len(hops))
	for i, h := range hops {
		chops[i] = crypt.CircuitHop{Pub: h.Pub, Addr: h.Addr, Key: keys[i]}
	}
	delete(w.circByID, p.id)
	p.id = freshID(w, w.circByID)
	p.keys = keys
	p.first = a
	w.circByID[p.id] = p
	onion, err := crypt.BuildCircuitOnion(w.cpu, chops, nil)
	return p.id, onion, err
}

func (p *circPath) launch(w *WCL, via []identity.NodeID, onion []byte) []byte {
	p.setupAt = w.rt.Now()
	msg := circSetupMsg{CircID: p.id, From: w.node.ID(), ViaPath: via, Onion: onion}
	return msg.encode()
}

func (p *circPath) awaited(w *WCL) bool { return w.circByID[p.id] == p && !p.established }

func (p *circPath) giveUp(w *WCL, _ bool) { w.failSetup(p) }

// failSetup abandons establishment: queued cells fall back to the
// one-shot engine, and the circuit handle is dropped unless another
// path still serves it (a failed rotation keeps the old path working).
func (w *WCL) failSetup(p *circPath) {
	obs.Inc(&w.st.CircuitsFailed)
	c := p.c
	w.closePath(p, false)
	w.drainQueues(c)
	if c.cur == nil && c.old == nil && c.opening == nil {
		w.dropCircuit(c)
	}
}

// establish completes the handshake for p after the exit's
// acknowledgement made it back.
func (w *WCL) establish(p *circPath) {
	if p.established || p.closed {
		return
	}
	c := p.c
	if c.closed {
		return
	}
	p.established = true
	p.establishedAt = w.rt.Now()
	// The ack names this attempt's fresh circuit ID: an unambiguous
	// sample, for the path and for the node's onion-path estimator.
	rtt := p.establishedAt - p.setupAt
	p.rtt.sample(rtt)
	w.sampleRTT(rtt)
	if p.timer != nil {
		p.timer.Cancel()
		p.timer = nil
	}
	obs.Inc(&w.st.CircuitsEstablished)
	w.establishMS.ObserveDuration(p.establishedAt - p.start)
	obs.Add(&w.st.CircuitsOpen, 1)
	if c.opening == p {
		c.opening = nil
	}
	if old := c.cur; old != nil && old != p {
		// Rotation complete: retire the old path once it drains —
		// in-flight cells acked AND any pinned stream message finished
		// (immediately when neither remains). A fragmented message must
		// never split across circuits: the exit's (circID, seq) dedup
		// only covers one circuit.
		if w.pathDrained(old) {
			w.closePath(old, true)
		} else {
			old.closing = true
			c.old = old
		}
	}
	c.cur = p
	q := c.queue
	c.queue = nil
	for _, cell := range q {
		if c.cur != p {
			// The path broke while flushing; the remaining cells take
			// the one-shot road.
			w.Send(c.dest, cell.payload, cell.done)
			continue
		}
		w.sendCell(c, p, cell)
	}
	w.startStreams(c)
	if c.keep == nil {
		c.armKeepalive()
	}
}

// sendCell launches one cell on p and arms its retransmit timer.
func (w *WCL) sendCell(c *Circuit, p *circPath, cell *pendingCell) {
	if !w.launchCell(p, p.seq+1, cell) {
		// The first hop went cold (or the keys do not seal): the path is
		// unusable.
		w.cellFallback(c, cell)
		w.closePath(p, false)
		return
	}
	p.seq++
	if !cell.ping {
		p.cells++
	}
	obs.Inc(&w.st.CellsSent)
	cell.sentAt = w.rt.Now()
	c.lastSent = cell.sentAt
	p.pendingCells[p.seq] = cell
	w.armCellTimer(p, p.seq, cell)
}

// launchCell seals one copy of cell and sends it on p under seq; false
// when p cannot carry it. The plaintext is copied once, into the buffer
// that travels to the exit. Relays open that buffer in place, so every
// copy is sealed afresh — under fresh nonces, so relays cannot link a
// retransmit to its original — and cell.payload stays untouched for
// retransmits and the one-shot fallback.
func (w *WCL) launchCell(p *circPath, seq uint64, cell *pendingCell) bool {
	via, ok := w.node.RouteTo(p.first)
	if !ok {
		return false
	}
	typ := cellData
	if cell.ping {
		typ = cellPing
	}
	start := time.Now()
	cw := newCellWriter(len(p.keys), 1+len(cell.payload))
	cw.U8(typ)
	cw.Raw(cell.payload)
	if err := sealCell(w.cpu, p.keys, cw); err != nil {
		return false
	}
	w.Trace.Emit(obs.KindCellSend, w.rt.Now(), time.Since(start), cw.Len(), p.id)
	w.node.SendAppVia(p.first, via, frameCircData(cw, p.id, seq))
	return true
}

// armCellTimer schedules a pending cell's next retransmit at the path's
// current RTO — no backoff: loss here comes in bursts that end per
// datagram, not per unit of time — and never past pathTimeout after the
// cell's first send, where it times out instead.
//
// A retransmit is two copies sent back to back. The cell is late
// because a burst hit its path, and a burst ends per datagram: a lone
// copy finds it still on as often as the burst persists, and the cell
// waits another RTO; the second copy finds it over whenever the first
// ended it. The exit delivers one copy and re-acks the other, so the
// ack path gets the same second chance.
func (w *WCL) armCellTimer(p *circPath, seq uint64, cell *pendingCell) {
	wait := min(p.rtt.rto(), cell.sentAt+pathTimeout-w.rt.Now())
	cell.timer = w.rt.After(wait, func() {
		if w.circByID[p.id] != p || p.pendingCells[seq] != cell {
			return
		}
		// The retransmit goes on the cell's own path under its own seq;
		// a path that can no longer carry it is broken.
		if w.rt.Now()-cell.sentAt >= pathTimeout || !w.launchCell(p, seq, cell) || !w.launchCell(p, seq, cell) {
			w.cellTimeout(p, seq)
			return
		}
		cell.retx = true
		obs.Inc(&w.st.CellRetransmits)
		p.c.lastSent = w.rt.Now()
		w.armCellTimer(p, seq, cell)
	})
}

// cellTimeout handles a cell still unacknowledged pathTimeout after its
// first send: the payload falls back to a one-shot send and the path —
// evidently broken — is torn down (its other in-flight cells fall back
// too).
func (w *WCL) cellTimeout(p *circPath, seq uint64) {
	cell := p.pendingCells[seq]
	if cell == nil {
		return
	}
	delete(p.pendingCells, seq)
	w.cellFallback(p.c, cell)
	w.closePath(p, false)
}

// cellFallback re-sends a data cell its circuit could not carry
// through the one-shot engine; a keepalive ping is simply dropped.
func (w *WCL) cellFallback(c *Circuit, cell *pendingCell) {
	if !cell.ping {
		obs.Inc(&w.st.CellFallbacks)
		w.Send(c.dest, cell.payload, cell.done)
	}
}

// closePath tears one path down. sendClose announces the teardown
// forward so relays drop their entries early (skipped for broken paths
// — the entries expire on their own). Idempotent.
func (w *WCL) closePath(p *circPath, sendClose bool) {
	if p.closed {
		return
	}
	p.closed = true
	if w.circByID[p.id] == p {
		delete(w.circByID, p.id)
	}
	if p.timer != nil {
		p.timer.Cancel()
		p.timer = nil
	}
	// In-flight cells fall back in ascending seq order — the order the
	// application sent them. Iterating the map directly would re-send
	// in runtime hash order, nondeterministic under a fixed seed.
	for _, seq := range sortedSeqs(p.pendingCells) {
		cell := p.pendingCells[seq]
		delete(p.pendingCells, seq)
		if cell.timer != nil {
			cell.timer.Cancel()
		}
		w.cellFallback(p.c, cell)
	}
	if s := p.stream; s != nil {
		p.stream = nil
		w.streamFallback(s)
	}
	if p.established {
		obs.Add(&w.st.CircuitsOpen, -1)
		obs.Inc(&w.st.CircuitsClosed)
		if sendClose {
			if via, ok := w.node.RouteTo(p.first); ok {
				w.node.SendAppVia(p.first, via, encodeCircClose(p.id))
			}
		}
	}
	c := p.c
	if c.cur == p {
		c.cur = nil
	}
	if c.old == p {
		c.old = nil
	}
	if c.opening == p {
		c.opening = nil
	}
}

// dropCircuit forgets the circuit handle entirely.
func (w *WCL) dropCircuit(c *Circuit) {
	if c.closed {
		return
	}
	c.closed = true
	if c.keep != nil {
		c.keep.Cancel()
		c.keep = nil
	}
	if w.circuits[c.dest.ID] == c {
		delete(w.circuits, c.dest.ID)
	}
}

// armKeepalive schedules the circuit's periodic self-check: tear down
// when idle, ping when quiet, otherwise just stay armed.
func (c *Circuit) armKeepalive() {
	w := c.w
	c.keep = w.rt.After(circuitKeepalive, func() {
		c.keep = nil
		if c.closed {
			return
		}
		now := w.rt.Now()
		if now-c.lastUsed >= circuitIdle {
			c.Close()
			return
		}
		if p := c.cur; p != nil && now-c.lastSent >= circuitKeepalive {
			obs.Inc(&w.st.Keepalives)
			w.sendCell(c, p, &pendingCell{ping: true, start: now})
		}
		c.armKeepalive()
	})
}

// ─── Message handlers (source and relay roles share the node) ───

// handleCircAck completes establishment at the source, or relays the
// acknowledgement backward along the stored reverse routing.
func (w *WCL) handleCircAck(circID uint64) {
	if p := w.circByID[circID]; p != nil {
		w.establish(p)
		return
	}
	if e := w.relayCirc.get(circID, w.rt.Now()); e != nil {
		w.sendBack(e.back, circID, encodeCircAck(circID))
	}
}

// handleCircCellAck resolves an in-flight cell at the source, or
// relays the acknowledgement backward.
func (w *WCL) handleCircCellAck(circID, seq uint64) {
	if p := w.circByID[circID]; p != nil {
		cell := p.pendingCells[seq]
		if cell == nil {
			return
		}
		delete(p.pendingCells, seq)
		if cell.timer != nil {
			cell.timer.Cancel()
		}
		if !cell.retx {
			p.rtt.sample(w.rt.Now() - cell.sentAt)
		}
		obs.Inc(&w.st.CellsAcked)
		if !cell.ping {
			r := Result{Outcome: Success, Attempts: 1, Elapsed: w.rt.Now() - cell.start}
			w.cellMS.ObserveDuration(r.Elapsed)
			w.report(p.c.dest.ID, cell.done, r)
		}
		if p.closing && w.pathDrained(p) {
			w.closePath(p, true)
		}
		return
	}
	if e := w.relayCirc.get(circID, w.rt.Now()); e != nil {
		w.sendBack(e.back, circID, encodeCircCellAck(circID, seq))
	}
}

// handleCircSetup installs a relay (or exit) circuit entry from a
// setup onion and passes the rest of the onion along.
func (w *WCL) handleCircSetup(src transport.Endpoint, m *circSetupMsg) {
	if m.CircID == 0 {
		return
	}
	// An entry already installed under this ID means a duplicate (or
	// replay): the exit re-acknowledges — its ack may have been lost —
	// everyone else stays silent rather than re-forwarding setup state.
	if e := w.relayCirc.get(m.CircID, w.rt.Now()); e != nil {
		obs.Inc(&w.st.DupForwards)
		if e.exit {
			w.sendBack(e.back, m.CircID, encodeCircAck(m.CircID))
		}
		return
	}
	if w.seenForwards.Add(m.CircID ^ fnvSum(m.Onion)) {
		obs.Inc(&w.st.DupForwards)
		return
	}
	before := w.cpu.Total()
	key, next, inner, exit, err := crypt.PeelCircuit(w.cpu, w.node.Identity().Key, m.Onion)
	if !w.peeled(before, len(m.Onion), m.CircID, err) {
		return
	}
	e := &relayCircuit{
		id:   m.CircID,
		key:  key,
		back: hopBack{from: m.From, via: reverseIDs(m.ViaPath), direct: src},
		exit: exit,
	}
	if exit {
		w.relayCirc.put(e, w.rt.Now())
		w.sendBack(e.back, m.CircID, encodeCircAck(m.CircID))
		return
	}
	fwd := circSetupMsg{CircID: m.CircID, From: w.node.ID(), Onion: inner}
	frame := func(via []identity.NodeID) []byte { fwd.ViaPath = via; return fwd.encode() }
	if addr, ok := w.forwardHop(next, m.CircID, len(inner), frame); ok {
		e.next = addr
		w.relayCirc.put(e, w.rt.Now())
	}
}

// handleCircData opens one cell layer: relays pass the cell along,
// the exit deduplicates, delivers data cells, and acknowledges. The
// layer is opened in place — this node owns the datagram payload m.Cell
// points into (transport.Datagram) — so a relay forwards, and the exit
// delivers, a sub-slice of the buffer the source allocated.
func (w *WCL) handleCircData(payload []byte, m circDataMsg) {
	e := w.relayCirc.get(m.CircID, w.rt.Now())
	if e == nil {
		obs.Inc(&w.st.CellDrops)
		return
	}
	start := time.Now()
	pt, err := crypt.OpenSymInPlace(w.cpu, e.key, m.Cell)
	dur := time.Since(start)
	if err != nil {
		obs.Inc(&w.st.PeelErrors)
		return
	}
	if e.exit {
		typ, body, ok := decodeCellPayload(pt)
		if !ok {
			obs.Inc(&w.st.PeelErrors)
			return
		}
		// Exactly-once under duplication: a repeated cell is only
		// re-acknowledged (the first ack may have been lost). For
		// duplicated stream fragments the acknowledgement repeats at
		// the stream level — the sender tracks fragments, not seqs.
		if w.deliveredCells.Add(cellKey{m.CircID, m.Seq}) {
			obs.Inc(&w.st.DupCells)
			if typ == cellStream {
				if f, err := decodeStreamFrag(body); err == nil {
					w.streamReAck(e, f.StreamID)
				}
				return
			}
			w.sendBack(e.back, m.CircID, encodeCircCellAck(m.CircID, m.Seq))
			return
		}
		if typ == cellStream {
			f, err := decodeStreamFrag(body)
			if err != nil {
				obs.Inc(&w.st.PeelErrors)
				return
			}
			// The stream ack (cumulative + selective) carries this
			// fragment's reliability; no per-cell ack travels for it.
			w.handleStreamFrag(e, f)
			return
		}
		if typ == cellData {
			obs.Inc(&w.st.CellsDelivered)
			w.Trace.Emit(obs.KindCellDeliver, w.rt.Now(), dur, len(body), m.CircID)
			if w.OnReceive != nil {
				w.OnReceive(body)
			}
		}
		w.sendBack(e.back, m.CircID, encodeCircCellAck(m.CircID, m.Seq))
		return
	}
	// pt lies circDataHeader+NonceSize bytes into payload: the old
	// header and the nonce this hop consumed are the headroom the next
	// hop's header (and nylon's tag) are written into.
	const ptAt = circDataHeader + crypt.NonceSize
	frame := frameCircData(wire.Around(payload[:ptAt+len(pt)], ptAt), m.CircID, m.Seq)
	if !w.sendHop(e.next, func([]identity.NodeID) []byte { return frame }) {
		obs.Inc(&w.st.DropNoContact)
		return
	}
	obs.Inc(&w.st.CellsForwarded)
	w.Trace.Emit(obs.KindCellForward, w.rt.Now(), dur, len(pt), m.CircID)
}

// handleCircClose drops the relay entry and passes the teardown
// forward. Unauthenticated like every WCL datagram: a forged close
// only degrades the source to one-shot fallback.
func (w *WCL) handleCircClose(circID uint64) {
	e := w.relayCirc.remove(circID)
	if e == nil {
		return
	}
	if e.exit {
		w.dropStreamRecv(circID)
		return
	}
	w.sendHop(e.next, func([]identity.NodeID) []byte { return encodeCircClose(circID) })
}

// ─── Relay-side circuit table ───

// cellKey identifies one cell for exit-hop deduplication.
type cellKey struct{ circ, seq uint64 }

// relayCircuit is one hop's state for a circuit passing through it:
// its cell key and the routing captured at setup, backward towards the
// source and (unless it is the exit) forward towards the exit.
type relayCircuit struct {
	id   uint64
	key  []byte // this hop's cell key
	back hopBack
	exit bool
	next hopAddr

	lastUsed time.Duration
	elem     *list.Element
}

// circTable is the bounded relay-side circuit table: LRU-evicted past
// cap, expired circuitTTL after last use. The gauge tracks its size.
type circTable struct {
	cap   int
	ll    *list.List // front = most recently used
	m     map[uint64]*relayCircuit
	gauge *int64
}

func newCircTable(cap int, gauge *int64) *circTable {
	return &circTable{cap: cap, ll: list.New(), m: make(map[uint64]*relayCircuit), gauge: gauge}
}

// get returns the live entry for id, refreshing its recency; expired
// entries are dropped on access.
func (t *circTable) get(id uint64, now time.Duration) *relayCircuit {
	e := t.m[id]
	if e == nil {
		return nil
	}
	if now-e.lastUsed > circuitTTL {
		t.drop(e)
		return nil
	}
	e.lastUsed = now
	t.ll.MoveToFront(e.elem)
	return e
}

// put installs an entry, pruning expired tail entries and evicting the
// least recently used one past the bound.
func (t *circTable) put(e *relayCircuit, now time.Duration) {
	if old := t.m[e.id]; old != nil {
		t.drop(old)
	}
	for back := t.ll.Back(); back != nil; back = t.ll.Back() {
		oldest := back.Value.(*relayCircuit)
		if now-oldest.lastUsed <= circuitTTL {
			break
		}
		t.drop(oldest)
	}
	e.lastUsed = now
	e.elem = t.ll.PushFront(e)
	t.m[e.id] = e
	if len(t.m) > t.cap {
		t.drop(t.ll.Back().Value.(*relayCircuit))
	}
	obs.Set(t.gauge, int64(len(t.m)))
}

// remove deletes and returns the entry for id, if present.
func (t *circTable) remove(id uint64) *relayCircuit {
	e := t.m[id]
	if e != nil {
		t.drop(e)
	}
	return e
}

func (t *circTable) drop(e *relayCircuit) {
	delete(t.m, e.id)
	t.ll.Remove(e.elem)
	obs.Set(t.gauge, int64(len(t.m)))
}

func (t *circTable) size() int { return len(t.m) }
