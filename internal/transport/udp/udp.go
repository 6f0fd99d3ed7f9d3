// Package udp runs the transport.Transport contract over real UDP
// sockets, letting the full WHISPER stack — Nylon, the WCL, PPSS —
// execute unchanged outside the emulator.
//
// Addressing. Protocol layers speak overlay endpoints (transport.IP,
// port); the wire speaks real socket addresses. The transport bridges
// the two with an address book: static entries are seeded with AddPeer
// (the bootstrap/tracker role), and dynamic entries are learned from
// the encapsulation header of every arriving packet, so any peer that
// talks to us becomes reachable by its overlay address. Each datagram
// is prefixed with a 14-byte header naming the overlay source and
// destination; datagrams for overlay endpoints with no known real
// address are dropped, like any unroutable packet.
//
// Concurrency. The simulated substrate executes all protocol code of
// all nodes on one goroutine; protocol layers therefore hold no locks.
// This transport preserves that contract per instance: a single
// dispatch goroutine runs every handler invocation and timer callback,
// so the stacks above never see concurrency. A separate reader
// goroutine only parses packets and enqueues closures. External
// goroutines (tests, daemon control planes) interact with the stack
// through Do, which runs a closure on the dispatch goroutine. Now and
// Send are safe from any goroutine; After, EveryJitter,
// Rand, Attach, and Detach must only be used from dispatch context
// (handler/timer callbacks or Do) or before Start — the same rule the
// simulator imposes.
package udp

import (
	"container/heap"
	"container/list"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"whisper/internal/transport"
)

// maxDatagram bounds reads; onion-routed WCL payloads over a few hops
// fit comfortably.
const maxDatagram = 64 * 1024

// Encapsulation header: magic 'W', version, src IP u32, src port u16,
// dst IP u32, dst port u16.
const (
	encapMagic   = 'W'
	encapVersion = 1
	encapLen     = 14
)

// defaultMaxLearned bounds the learned side of the address book. Seeded
// entries (AddPeer) are pinned and do not count against the bound.
// Without a bound, any host that can reach the socket could grow the
// book without limit by spraying packets with fabricated overlay
// source endpoints.
const defaultMaxLearned = 4096

// bookEntry is one address-book binding. Seeded entries are permanent;
// learned entries sit in an LRU list and are evicted oldest-first when
// the book exceeds its bound.
type bookEntry struct {
	addr   *net.UDPAddr
	seeded bool
	elem   *list.Element // position in learned; nil for seeded entries
}

// Transport drives a protocol stack over one real UDP socket.
type Transport struct {
	conn  *net.UDPConn
	start time.Time

	mu         sync.Mutex
	handlers   map[transport.IP]transport.Handler
	book       map[transport.Endpoint]*bookEntry
	learned    *list.List // learned book keys, most recently used first
	maxLearned int
	timers     timerHeap
	rng        *rand.Rand
	started    bool
	closed     bool
	unrouted   uint64

	tasks      chan func()
	wake       chan struct{}
	stopc      chan struct{}
	loopDone   chan struct{}
	readerDone chan struct{}
}

// New binds a transport to addr ("127.0.0.1:0" for an ephemeral port).
// The seed feeds the transport's deterministic Rand; wall-clock timing
// still makes real runs non-reproducible, so the seed only decouples
// protocol randomness from the global source.
func New(addr string, seed int64) (*Transport, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport/udp: %w", err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("transport/udp: %w", err)
	}
	return &Transport{
		conn:       conn,
		start:      time.Now(),
		handlers:   make(map[transport.IP]transport.Handler),
		book:       make(map[transport.Endpoint]*bookEntry),
		learned:    list.New(),
		maxLearned: defaultMaxLearned,
		rng:        rand.New(rand.NewSource(seed)),
		tasks:      make(chan func(), 1024),
		wake:       make(chan struct{}, 1),
		stopc:      make(chan struct{}),
		loopDone:   make(chan struct{}),
		readerDone: make(chan struct{}),
	}, nil
}

// LocalAddr returns the bound socket address (with the resolved port).
func (t *Transport) LocalAddr() *net.UDPAddr { return t.conn.LocalAddr().(*net.UDPAddr) }

// AddPeer seeds the address book: overlay endpoint ep is reachable at
// the real address addr. Safe from any goroutine.
func (t *Transport) AddPeer(ep transport.Endpoint, addr string) error {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("transport/udp: peer %v: %w", ep, err)
	}
	t.mu.Lock()
	if e := t.book[ep]; e != nil {
		// Promote: a seeded binding is authoritative and pinned.
		e.addr = udpAddr
		e.seeded = true
		if e.elem != nil {
			t.learned.Remove(e.elem)
			e.elem = nil
		}
	} else {
		t.book[ep] = &bookEntry{addr: udpAddr, seeded: true}
	}
	t.mu.Unlock()
	return nil
}

// SetMaxLearned adjusts the learned-entry bound (tests; default 4096),
// evicting immediately if the book already exceeds it. Safe from any
// goroutine.
func (t *Transport) SetMaxLearned(n int) {
	if n < 1 {
		n = 1
	}
	t.mu.Lock()
	t.maxLearned = n
	t.evictLearnedLocked()
	t.mu.Unlock()
}

// BookSize reports the address book's composition. Safe from any
// goroutine.
func (t *Transport) BookSize() (seeded, learned int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	learned = t.learned.Len()
	return len(t.book) - learned, learned
}

// evictLearnedLocked drops least-recently-used learned entries until
// the bound holds. Caller holds t.mu.
func (t *Transport) evictLearnedLocked() {
	for t.learned.Len() > t.maxLearned {
		oldest := t.learned.Back()
		t.learned.Remove(oldest)
		delete(t.book, oldest.Value.(transport.Endpoint))
	}
}

// Unrouted reports how many datagrams were dropped because the address
// book had no entry for their destination.
func (t *Transport) Unrouted() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.unrouted
}

// Start launches the reader and dispatch goroutines.
func (t *Transport) Start() {
	t.mu.Lock()
	if t.started || t.closed {
		t.mu.Unlock()
		return
	}
	t.started = true
	t.mu.Unlock()
	go t.reader()
	go t.loop()
}

// Close stops dispatch, closes the socket, and waits for both
// goroutines to exit. Timers never fire after Close returns. Safe to
// call more than once; must not be called from dispatch context.
func (t *Transport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	started := t.started
	t.mu.Unlock()
	close(t.stopc)
	t.conn.Close()
	if started {
		<-t.loopDone
		<-t.readerDone
	}
}

// Do runs fn on the dispatch goroutine and waits for it to return.
// This is the only safe way for an external goroutine to touch the
// protocol stack. Must not be called from dispatch context (it would
// deadlock), nor before Start.
func (t *Transport) Do(fn func()) {
	done := make(chan struct{})
	select {
	case t.tasks <- func() { fn(); close(done) }:
	case <-t.stopc:
		return
	}
	select {
	case <-done:
	case <-t.stopc:
	}
}

// Now implements transport.Transport: monotonic time since New.
func (t *Transport) Now() time.Duration { return time.Since(t.start) }

// Rand implements transport.Transport. Dispatch context only.
func (t *Transport) Rand() *rand.Rand { return t.rng }

// Attach implements transport.Transport.
func (t *Transport) Attach(ip transport.IP, h transport.Handler) {
	if h == nil {
		panic("transport/udp: attach nil handler")
	}
	t.mu.Lock()
	t.handlers[ip] = h
	t.mu.Unlock()
}

// Detach implements transport.Transport.
func (t *Transport) Detach(ip transport.IP) {
	t.mu.Lock()
	delete(t.handlers, ip)
	t.mu.Unlock()
}

// Send implements transport.Transport: encapsulate and transmit to the
// real address of dg.Dst. Unroutable datagrams are dropped silently —
// UDP semantics, and exactly what the emulator does for dead hosts.
func (t *Transport) Send(dg transport.Datagram) {
	t.mu.Lock()
	var addr *net.UDPAddr
	if e := t.book[dg.Dst]; e != nil {
		addr = e.addr
		if e.elem != nil {
			// Destinations we still talk to stay out of eviction's way.
			t.learned.MoveToFront(e.elem)
		}
	} else {
		t.unrouted++
	}
	t.mu.Unlock()
	if addr == nil {
		return
	}
	buf := make([]byte, encapLen+len(dg.Payload))
	buf[0] = encapMagic
	buf[1] = encapVersion
	binary.BigEndian.PutUint32(buf[2:], uint32(dg.Src.IP))
	binary.BigEndian.PutUint16(buf[6:], dg.Src.Port)
	binary.BigEndian.PutUint32(buf[8:], uint32(dg.Dst.IP))
	binary.BigEndian.PutUint16(buf[12:], dg.Dst.Port)
	copy(buf[encapLen:], dg.Payload)
	_, _ = t.conn.WriteToUDP(buf, addr)
}

// reader pulls packets off the socket, decodes the encapsulation
// header, and enqueues dispatch closures. If the dispatch queue is
// full the packet is dropped — UDP already promises no more than
// best-effort delivery.
func (t *Transport) reader() {
	defer close(t.readerDone)
	buf := make([]byte, maxDatagram)
	for {
		n, from, err := t.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed by Close
		}
		payload := make([]byte, n)
		copy(payload, buf[:n])
		t.dispatch(payload, from)
	}
}

// dispatch routes one received packet to the dispatch goroutine.
// Packets without the encapsulation header are dropped.
func (t *Transport) dispatch(payload []byte, from *net.UDPAddr) {
	if len(payload) < encapLen || payload[0] != encapMagic || payload[1] != encapVersion {
		return
	}
	src := transport.Endpoint{
		IP:   transport.IP(binary.BigEndian.Uint32(payload[2:])),
		Port: binary.BigEndian.Uint16(payload[6:]),
	}
	dst := transport.Endpoint{
		IP:   transport.IP(binary.BigEndian.Uint32(payload[8:])),
		Port: binary.BigEndian.Uint16(payload[12:]),
	}
	dg := transport.Datagram{Src: src, Dst: dst, Payload: payload[encapLen:]}
	t.mu.Lock()
	// Learn the sender's real address; later replies to src route
	// without static seeding. Learned entries live in a bounded LRU so a
	// packet-spraying peer cannot grow the book without limit; seeded
	// entries are never displaced.
	if e := t.book[src]; e != nil {
		if !e.seeded {
			e.addr = from
			t.learned.MoveToFront(e.elem)
		}
	} else {
		e := &bookEntry{addr: from}
		e.elem = t.learned.PushFront(src)
		t.book[src] = e
		t.evictLearnedLocked()
	}
	h := t.handlers[dst.IP]
	t.mu.Unlock()
	if h == nil {
		return
	}
	t.enqueue(func() { h.HandleDatagram(dg) })
}

// enqueue offers fn to the dispatch loop without blocking the reader.
func (t *Transport) enqueue(fn func()) {
	select {
	case t.tasks <- fn:
	case <-t.stopc:
	default:
		// Queue full: drop, like a saturated socket buffer.
	}
}

// loop is the dispatch goroutine: it serializes timer callbacks and
// packet handlers, waking for whichever comes first.
func (t *Transport) loop() {
	defer close(t.loopDone)
	idle := time.NewTimer(time.Hour)
	defer idle.Stop()
	for {
		fire, wait := t.nextTimer()
		if fire != nil {
			fire()
			continue
		}
		if !idle.Stop() {
			select {
			case <-idle.C:
			default:
			}
		}
		idle.Reset(wait)
		select {
		case <-t.stopc:
			return
		case fn := <-t.tasks:
			fn()
		case <-t.wake:
		case <-idle.C:
		}
	}
}

// nextTimer pops one due timer callback, or returns how long dispatch
// may sleep before the earliest pending timer.
func (t *Transport) nextTimer() (fire func(), wait time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Since(t.start)
	for t.timers.Len() > 0 {
		tm := t.timers[0]
		if tm.fn == nil { // cancelled
			heap.Pop(&t.timers)
			continue
		}
		if tm.at > now {
			return nil, tm.at - now
		}
		heap.Pop(&t.timers)
		fn := tm.fn
		tm.fn = nil
		return fn, 0
	}
	return nil, time.Hour
}

// After implements transport.Transport. Dispatch context (or
// pre-Start) only.
func (t *Transport) After(d time.Duration, fn func()) transport.Timer {
	if fn == nil {
		panic("transport/udp: nil callback")
	}
	if d < 0 {
		d = 0
	}
	tm := &timer{at: time.Since(t.start) + d, fn: fn}
	t.mu.Lock()
	heap.Push(&t.timers, tm)
	t.mu.Unlock()
	select {
	case t.wake <- struct{}{}:
	default:
	}
	return tm
}

// EveryJitter implements transport.Transport, mirroring the simulator:
// the callback runs every period plus a uniform draw from [0, jitter).
// Dispatch context (or pre-Start) only.
func (t *Transport) EveryJitter(period, jitter time.Duration, fn func()) transport.Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("transport/udp: non-positive ticker period %v", period))
	}
	tk := &ticker{t: t, period: period, jitter: jitter, fn: fn}
	tk.schedule()
	return tk
}

// timer is one pending callback in the heap.
type timer struct {
	at  time.Duration
	fn  func()
	idx int
}

// Cancel implements transport.Timer. The heap entry stays until the
// dispatch loop reaps it; the callback will not run. Dispatch context
// only (protocol code cancels its own timers from handlers).
func (tm *timer) Cancel() {
	if tm == nil {
		return
	}
	tm.fn = nil
}

// Stopped implements transport.Timer: cancelled or already fired.
func (tm *timer) Stopped() bool { return tm == nil || tm.fn == nil }

// ticker reschedules itself after every firing, like simnet.Ticker.
type ticker struct {
	t       *Transport
	period  time.Duration
	jitter  time.Duration
	fn      func()
	tm      transport.Timer
	stopped bool
}

func (tk *ticker) schedule() {
	d := tk.period
	if tk.jitter > 0 {
		d += time.Duration(tk.t.rng.Int63n(int64(tk.jitter)))
	}
	tk.tm = tk.t.After(d, func() {
		if tk.stopped {
			return
		}
		tk.fn()
		if !tk.stopped {
			tk.schedule()
		}
	})
}

// Stop implements transport.Ticker. Safe on nil; dispatch context only.
func (tk *ticker) Stop() {
	if tk == nil || tk.stopped {
		return
	}
	tk.stopped = true
	tk.tm.Cancel()
}

// timerHeap orders timers by deadline; insertion order breaks ties via
// heap stability not being required (UDP timing is non-deterministic
// anyway).
type timerHeap []*timer

func (h timerHeap) Len() int            { return len(h) }
func (h timerHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h timerHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].idx = i; h[j].idx = j }
func (h *timerHeap) Push(x interface{}) { tm := x.(*timer); tm.idx = len(*h); *h = append(*h, tm) }
func (h *timerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	tm := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	tm.idx = -1
	return tm
}

var _ transport.Transport = (*Transport)(nil)
