// Package simnet provides a deterministic discrete-event simulation
// engine: a virtual clock, an event scheduler, timers and tickers, and a
// seeded random source. All WHISPER protocol experiments run on top of
// this engine so that a (seed, configuration) pair fully determines the
// outcome of a run.
//
// The engine is single-threaded by design: events execute sequentially
// in (time, insertion) order. Protocol handlers therefore never need
// locks, which mirrors the actor-per-node execution model of the SPLAY
// framework used in the paper.
package simnet

import (
	"fmt"
	"math/rand"
	"time"
)

// Sim is a discrete-event simulator with a virtual clock.
//
// The zero value is not usable; create instances with New.
type Sim struct {
	now     time.Duration
	epoch   time.Time
	seq     uint64
	rng     *rand.Rand
	stopped bool
	running bool

	// Executed counts events dispatched so far (diagnostic).
	executed uint64

	// The event queue is a calendar queue (see queue.go): near is popped,
	// wheel and far only ever feed it.
	near    []*event // binary heap on (at, seq): every event of slot <= cur
	cur     int64    // the slot near was last filled from
	wheel   [wheelSlots]*event
	occ     [wheelSlots / 64]uint64 // bit i set: wheel[i] is not empty
	inWheel int
	far     eventHeap // events of slot >= cur+wheelSlots

	// cancelled counts dead events still queued; when they outnumber the
	// live ones the queue is compacted (retry- and route-maintenance-heavy
	// runs otherwise keep a long tail of dead timers alive until their
	// deadline comes round).
	cancelled int
	// free recycles event structs. The simulator is single-threaded, so
	// a plain stack beats sync.Pool; the sequence number a Timer remembers
	// keeps a stale handle from touching a recycled event.
	free []*event
}

// New returns a simulator whose random source is seeded with seed and
// whose virtual clock starts at a fixed epoch (2011-01-01 UTC, the year
// of the paper) plus zero.
func New(seed int64) *Sim {
	return &Sim{
		epoch: time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time as an offset from the start of
// the simulation.
func (s *Sim) Now() time.Duration { return s.now }

// Time returns the current virtual time as an absolute instant.
func (s *Sim) Time() time.Time { return s.epoch.Add(s.now) }

// Rand returns the simulation's deterministic random source. It must
// only be used from within event callbacks (or before Run), never from
// other goroutines.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Executed reports how many events have been dispatched so far.
func (s *Sim) Executed() uint64 { return s.executed }

// Timer is a handle to a scheduled event. Cancel prevents the callback
// from running if it has not run yet.
type Timer struct {
	s   *Sim
	ev  *event
	seq uint64 // ev's sequence number when the handle was made
}

// Cancel stops the timer. It is safe to call on an already-fired or
// already-cancelled timer, and safe to call on a nil Timer.
func (t *Timer) Cancel() {
	if t == nil || t.ev == nil {
		return
	}
	if t.ev.seq == t.seq && t.ev.fn != nil {
		t.ev.fn = nil
		t.s.cancelled++
		t.s.maybeCompact()
	}
	t.ev = nil
}

// Stopped reports whether the timer was cancelled or has fired.
func (t *Timer) Stopped() bool {
	return t == nil || t.ev == nil || t.ev.seq != t.seq || t.ev.fn == nil
}

// alloc takes an event from the free stack or allocates a fresh one.
func (s *Sim) alloc() *event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free = s.free[:n-1]
		return ev
	}
	return &event{}
}

// release recycles an event that left the queue. Every Timer handle
// still pointing at it reads as stopped: fn is nil until the event is
// posted again, and from then on its sequence number is a new one.
func (s *Sim) release(ev *event) {
	ev.fn = nil
	s.free = append(s.free, ev)
}

// post queues fn to run at absolute virtual time at and returns the
// queued event. Scheduling in the past (or present) runs the callback at
// the current time but strictly after the currently-executing event
// returns. The event comes off the free list and goes onto an intrusive
// slot list, so a caller that needs no cancellation handle (Schedule, a
// ticker re-arming itself) schedules without allocating.
func (s *Sim) post(at time.Duration, fn func()) *event {
	if fn == nil {
		panic("simnet: nil callback")
	}
	if at < s.now {
		at = s.now
	}
	ev := s.alloc()
	ev.at, ev.seq, ev.fn = at, s.seq, fn
	s.seq++
	s.place(ev)
	return ev
}

// At schedules fn to run at absolute virtual time at (clamped to the
// present, see post) and returns a handle that can cancel it.
func (s *Sim) At(at time.Duration, fn func()) *Timer {
	ev := s.post(at, fn)
	return &Timer{s: s, ev: ev, seq: ev.seq}
}

// After schedules fn to run d from the current virtual time.
func (s *Sim) After(d time.Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// Ticker repeatedly invokes a callback with a fixed period, optionally
// jittered. Cancel it with Stop.
type Ticker struct {
	s       *Sim
	period  time.Duration
	jitter  time.Duration
	fn      func()
	fire    func() // tk.tick bound once, so re-arming allocates nothing
	t       Timer  // the one outstanding event, by value
	stopped bool
}

// Every schedules fn to run every period of virtual time. The first
// firing happens after one period. A ticker holds only one outstanding
// timer at a time.
func (s *Sim) Every(period time.Duration, fn func()) *Ticker {
	return s.EveryJitter(period, 0, fn)
}

// EveryJitter is Every with a uniform jitter in [0, jitter) added to
// each period, which desynchronises node cycles like real deployments.
func (s *Sim) EveryJitter(period, jitter time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("simnet: non-positive ticker period %v", period))
	}
	tk := &Ticker{s: s, period: period, jitter: jitter, fn: fn}
	tk.fire = tk.tick
	tk.schedule()
	return tk
}

func (tk *Ticker) schedule() {
	d := tk.period
	if tk.jitter > 0 {
		d += time.Duration(tk.s.rng.Int63n(int64(tk.jitter)))
	}
	ev := tk.s.post(tk.s.now+d, tk.fire)
	tk.t = Timer{s: tk.s, ev: ev, seq: ev.seq}
}

func (tk *Ticker) tick() {
	if tk.stopped {
		return
	}
	tk.fn()
	if !tk.stopped {
		tk.schedule()
	}
}

// Stop cancels the ticker. Safe to call multiple times and on nil.
func (tk *Ticker) Stop() {
	if tk == nil || tk.stopped {
		return
	}
	tk.stopped = true
	tk.t.Cancel()
}

// Run executes events until the queue is empty or Stop is called.
func (s *Sim) Run() {
	s.run(-1)
}

// RunUntil executes events with timestamps <= t and then advances the
// clock to exactly t.
func (s *Sim) RunUntil(t time.Duration) {
	s.run(t)
	if !s.stopped && s.now < t {
		s.now = t
	}
}

// RunFor executes events for d of virtual time from the current clock.
func (s *Sim) RunFor(d time.Duration) { s.RunUntil(s.now + d) }

// Stop makes the current Run/RunUntil call return after the current
// event completes. The simulation may be resumed afterwards.
func (s *Sim) Stop() { s.stopped = true }

func (s *Sim) run(until time.Duration) {
	if s.running {
		panic("simnet: re-entrant Run")
	}
	s.running = true
	s.stopped = false
	defer func() { s.running = false }()
	for !s.stopped {
		if len(s.near) == 0 && !s.advance(until) {
			return
		}
		ev := s.near[0]
		if until >= 0 && ev.at > until {
			return
		}
		s.popNear()
		if ev.fn == nil { // cancelled: drop and recycle
			s.cancelled--
			s.release(ev)
			continue
		}
		if ev.at > s.now {
			s.now = ev.at
		}
		fn := ev.fn
		s.release(ev)
		s.executed++
		fn()
	}
}

// NextLiveAt reports the timestamp of the earliest pending live event.
// Cancelled events in front of it are dropped and recycled on the way,
// so the answer is exact. The sharded coordinator uses it between
// windows to pick the next horizon.
func (s *Sim) NextLiveAt() (time.Duration, bool) {
	for len(s.near) > 0 || s.advance(-1) {
		ev := s.near[0]
		if ev.fn != nil {
			return ev.at, true
		}
		s.popNear()
		s.cancelled--
		s.release(ev)
	}
	return 0, false
}

// Schedule runs fn at absolute virtual time at (clamped to the present)
// without building a cancellation handle: with a recycled event it
// allocates nothing, which is what the datagram plane (netem deliveries,
// the sharded barrier exchange) schedules through. It also adapts the
// simulator to scheduler interfaces (see churn.Scheduler) that the
// sharded engine's control plane implements too.
func (s *Sim) Schedule(at time.Duration, fn func()) { s.post(at, fn) }

// Pending reports the number of events currently queued, including
// cancelled ones not yet compacted away.
func (s *Sim) Pending() int { return len(s.near) + s.inWheel + len(s.far) }

// Cancelled reports how many dead events are still queued (diagnostic;
// compaction keeps this below half of Pending).
func (s *Sim) Cancelled() int { return s.cancelled }
