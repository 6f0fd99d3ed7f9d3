package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"time"

	"whisper/internal/ppss"
	"whisper/internal/wcl"
)

// Payload layout: magic, sender, sequence number, then a body that is a
// window into the sender's seed-derived random buffer. The receiver
// owns the same buffers, so it checks every delivered byte against what
// was generated instead of trusting a checksum carried in-band.
const (
	payloadMagic = 0xB7 // outside the PPSS kind range and the WCL tags
	headerLen    = 6
	bodyShift    = 4096 // bodies of consecutive ops start at different offsets
	maxTries     = 4    // submissions of one op before it counts as failed
)

// counts are running operation totals. An op is one message a client
// wants delivered to some peer of its private view; a submission is one
// Send/SendCircuit/SendStream call. A submission the stack reports as
// failed (or refuses) is re-submitted to a freshly sampled peer, as a
// gossip application would, so an op fails only when maxTries
// submissions in a row did.
type counts struct {
	Attempted   uint64 // ops completed, successfully or not
	Succeeded   uint64
	Failed      uint64
	Submissions uint64
	SubmitFails uint64 // submissions that ended in wcl.Failed or a refusal
	Delivered   uint64 // distinct (sender, seq) handed to a receiving application
	Duplicates  uint64 // application deliveries beyond the first per (sender, seq)
	PayloadB    uint64 // bytes of the distinct messages delivered
}

type client struct {
	idx  int
	m    *member
	body []byte // random bytes, MaxPayload + bodyShift
	seq  uint32 // ops started
	seen []uint8

	// current op; tries == 0 means none
	kind  opKind
	tries int
	start time.Duration // virtual time of the first submission
	buf   []byte
	done  func(wcl.Result) // the completion callback, built once

	// A completion that arrives while the Send call is still on the
	// stack is parked here and handled by drive, so a stack that
	// refuses synchronously cannot recurse through the callback.
	sending  bool
	syncDone bool
	syncRes  wcl.Result
}

// load drives the closed loops and is the measuring half of the
// correctness gate.
type load struct {
	b       *world
	clients []*client

	now      counts
	inflight int
	stopping bool
	corrupt  int
	lats     []int64 // virtual ns of successful ops, fixed part only

	// Throughput slices: host time per SliceOps successful ops.
	sliceStart time.Time
	paused     time.Duration // host time spent in onFixed inside the open slice
	slices     []float64     // successful ops per host second

	fixedAt  uint64        // ops completed when the fixed part ends
	onFixed  func()        // called once, at that instant
	budget   time.Duration // host time after which the timed part ends
	started  time.Time
	progress time.Duration // virtual time of the last ended submission
}

func newLoad(b *world, seed int64, budget time.Duration) *load {
	fixed := b.wl.FixedOps
	l := &load{b: b, fixedAt: uint64(fixed), budget: budget, lats: make([]int64, 0, fixed)}
	for c := 0; c < clients && c < len(b.members); c++ {
		cl := &client{idx: c, m: b.members[c], body: make([]byte, b.wl.MaxPayload+bodyShift),
			seen: make([]uint8, 0, fixed)}
		// Payload bytes come from the workload seed, on a stream of
		// their own so they never disturb the world's draws.
		rand.New(rand.NewSource(seed ^ int64(0x62656e6368<<8|c))).Read(cl.body)
		cl.done = func(r wcl.Result) { l.complete(cl, r) }
		l.clients = append(l.clients, cl)
	}
	for _, m := range b.members {
		m.inst.OnMessage = func(_ ppss.Entry, p []byte) { l.receive(p) }
		// Stream messages are handed to wcl.WCL directly, below the
		// PPSS envelope, so they surface in the WCL receive hook the
		// PPSS router owns; everything that is not ours goes on to it.
		router := m.node.WCL.OnReceive
		m.node.WCL.OnReceive = func(p []byte) {
			if len(p) >= headerLen && p[0] == payloadMagic {
				l.receive(p)
				return
			}
			router(p)
		}
	}
	return l
}

// receive verifies one application delivery byte for byte and counts it
// as first or duplicate.
func (l *load) receive(p []byte) {
	if len(p) < headerLen || p[0] != payloadMagic || int(p[1]) >= len(l.clients) {
		l.corrupt++
		return
	}
	cl := l.clients[p[1]]
	seq := binary.BigEndian.Uint32(p[2:])
	off, n := int(seq%bodyShift), len(p)-headerLen
	if seq >= cl.seq || off+n > len(cl.body) || !bytes.Equal(p[headerLen:], cl.body[off:off+n]) {
		l.corrupt++
		return
	}
	for int(seq) >= len(cl.seen) {
		cl.seen = append(cl.seen, 0)
	}
	if cl.seen[seq] == 0 {
		cl.seen[seq] = 1
		l.now.Delivered++
		l.now.PayloadB += uint64(len(p))
	} else {
		l.now.Duplicates++
	}
}

// drive runs client c until it has a submission waiting on the network
// or, once the load is stopping, no op left.
func (l *load) drive(c *client) {
	for spins := 0; ; spins++ {
		if c.tries == 0 {
			if l.stopping {
				return
			}
			l.startOp(c)
		}
		r, sync := l.submit(c)
		if !sync {
			return
		}
		l.finish(c, r)
		if spins > 10_000 {
			l.b.problem("client %d: 10000 submissions in a row ended synchronously", c.idx)
			l.stop()
			return
		}
	}
}

func (l *load) startOp(c *client) {
	var size int
	c.kind, size = l.b.wl.op(c.idx, c.seq)
	c.buf = make([]byte, size)
	c.buf[0], c.buf[1] = payloadMagic, byte(c.idx)
	binary.BigEndian.PutUint32(c.buf[2:], c.seq)
	copy(c.buf[headerLen:], c.body[c.seq%bodyShift:])
	c.seq++
	c.start = l.b.w.Now()
	l.inflight++
}

// submit makes one submission of c's current op to a freshly sampled
// peer; sync reports that it already ended, with result r.
func (l *load) submit(c *client) (r wcl.Result, sync bool) {
	c.tries++
	l.now.Submissions++
	peer, ok := c.m.inst.GetPeer()
	if !ok {
		return wcl.Result{Outcome: wcl.Failed}, true
	}
	c.sending, c.syncDone = true, false
	sp := l.b.tr.begin("wcl.submit", uint64(c.idx)<<32|uint64(c.seq-1))
	switch c.kind {
	case opOneShot:
		c.m.inst.Send(peer, c.buf, c.done)
	case opCircuit:
		c.m.inst.SendCircuit(peer, c.buf, c.done)
	case opStream:
		c.m.node.WCL.SendStream(peer.Dest(), c.buf, c.done)
	}
	l.b.tr.end(sp)
	c.sending = false
	return c.syncRes, c.syncDone
}

// complete is the source completion callback of one submission.
func (l *load) complete(c *client, r wcl.Result) {
	if c.sending {
		c.syncRes, c.syncDone = r, true
		return
	}
	l.finish(c, r)
	l.drive(c)
}

// finish accounts one ended submission; the op ends with it unless it
// failed with tries left.
func (l *load) finish(c *client, r wcl.Result) {
	l.progress = l.b.w.Now()
	if r.Outcome == wcl.Failed {
		l.now.SubmitFails++
		if c.tries < maxTries {
			return
		}
		l.now.Failed++
	} else {
		l.now.Succeeded++
		if l.now.Attempted < l.fixedAt && !(l.b.wl.CellsOnly && c.kind == opStream) {
			l.lats = append(l.lats, int64(l.b.w.Now()-c.start))
		}
		if l.now.Succeeded%uint64(l.b.wl.SliceOps) == 0 {
			l.closeSlice()
		}
	}
	c.tries = 0
	l.inflight--
	l.now.Attempted++
	if l.now.Attempted == l.fixedAt {
		t := time.Now()
		l.onFixed()
		l.paused += time.Since(t)
	}
}

func (l *load) closeSlice() {
	t := time.Now()
	if d := t.Sub(l.sliceStart) - l.paused; d > 0 {
		l.slices = append(l.slices, float64(l.b.wl.SliceOps)/d.Seconds())
	}
	l.sliceStart, l.paused = t, 0
	if l.now.Attempted >= l.fixedAt && t.Sub(l.started) >= l.budget {
		l.stop()
	}
}

func (l *load) stop() {
	l.stopping = true
	l.b.w.StopRun()
}

// run executes the measured phase: the clients submit until both the
// fixed part is complete and the host-time budget is spent, then the
// in-flight ops drain.
func (l *load) run() {
	w := l.b.w
	if len(l.clients) < clients {
		l.b.problem("only %d of %d senders joined", len(l.clients), clients)
		return
	}
	l.started = time.Now()
	l.sliceStart = l.started
	sp := l.b.tr.begin("sim.pump", 0)
	for _, c := range l.clients {
		l.drive(c)
	}
	l.progress = w.Now()
	for !l.stopping {
		w.RunFor(l.b.wl.Step)
		l.b.tr.pumped()
		if w.Now()-l.progress > l.b.wl.Drain {
			l.b.problem("no submission ended for %v of virtual time", l.b.wl.Drain)
			break
		}
	}
	l.stopping = true
	for deadline := w.Now() + l.b.wl.Drain; l.inflight > 0 && w.Now() < deadline; {
		w.RunFor(l.b.wl.Step)
	}
	l.b.tr.end(sp)
}

// check is the run half of the correctness gate.
func (l *load) check() {
	b := l.b
	if l.corrupt > 0 {
		b.problem("%d corrupt or unknown payloads delivered", l.corrupt)
	}
	if l.inflight != 0 {
		b.problem("%d ops still in flight %v after the last submit", l.inflight, b.wl.Drain)
	}
	var started uint64
	for _, c := range l.clients {
		started += uint64(c.seq)
	}
	if done := l.now.Succeeded + l.now.Failed; started != done+uint64(l.inflight) || l.now.Attempted != done {
		b.problem("attempted %d ops but succeeded %d + failed %d + in flight %d",
			started, l.now.Succeeded, l.now.Failed, l.inflight)
	}
	if l.now.Delivered < l.now.Succeeded {
		b.problem("%d ops acknowledged at the source but only %d delivered", l.now.Succeeded, l.now.Delivered)
	}
}
