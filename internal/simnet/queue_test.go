package simnet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// queueUnderTest is what a script drives: the calendar-queue Sim, or the
// reference below.
type queueUnderTest interface {
	Now() time.Duration
	Executed() uint64
	Pending() int
	Cancelled() int
	NextLiveAt() (time.Duration, bool)
	RunUntil(time.Duration)
	Schedule(time.Duration, func())
	at(time.Duration, func()) (cancel func())
	after(time.Duration, func()) (cancel func())
	every(time.Duration, func()) (stop func())
}

type calendarSim struct{ *Sim }

func (c calendarSim) at(at time.Duration, fn func()) func()   { return c.At(at, fn).Cancel }
func (c calendarSim) after(d time.Duration, fn func()) func() { return c.After(d, fn).Cancel }
func (c calendarSim) every(p time.Duration, fn func()) func() { return c.Every(p, fn).Stop }

// refSim is the reference the calendar queue must be indistinguishable
// from: every pending event in one container/heap ordered by (at, seq),
// cancelled events left in place until they surface or outnumber the
// live ones — the engine's queue as it was before the wheel.
type refSim struct {
	now       time.Duration
	seq       uint64
	executed  uint64
	cancelled int
	events    refHeap
}

type refEvent struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}

func (r *refSim) Now() time.Duration { return r.now }
func (r *refSim) Executed() uint64   { return r.executed }
func (r *refSim) Pending() int       { return len(r.events) }
func (r *refSim) Cancelled() int     { return r.cancelled }

func (r *refSim) post(at time.Duration, fn func()) *refEvent {
	if at < r.now {
		at = r.now
	}
	ev := &refEvent{at: at, seq: r.seq, fn: fn}
	r.seq++
	heap.Push(&r.events, ev)
	return ev
}

func (r *refSim) Schedule(at time.Duration, fn func()) { r.post(at, fn) }

func (r *refSim) at(at time.Duration, fn func()) func() {
	ev := r.post(at, fn)
	return func() {
		if ev == nil || ev.fn == nil {
			return
		}
		ev.fn = nil
		ev = nil
		r.cancelled++
		if len(r.events) < 64 || r.cancelled*2 <= len(r.events) {
			return
		}
		live := r.events[:0]
		for _, e := range r.events {
			if e.fn != nil {
				live = append(live, e)
			}
		}
		r.events = live
		heap.Init(&r.events)
		r.cancelled = 0
	}
}

func (r *refSim) after(d time.Duration, fn func()) func() {
	if d < 0 {
		d = 0
	}
	return r.at(r.now+d, fn)
}

func (r *refSim) every(period time.Duration, fn func()) func() {
	stopped := false
	var cancel func()
	var tick func()
	tick = func() {
		fn()
		if !stopped {
			cancel = r.at(r.now+period, tick)
		}
	}
	cancel = r.at(r.now+period, tick)
	return func() {
		if !stopped {
			stopped = true
			cancel()
		}
	}
}

func (r *refSim) RunUntil(t time.Duration) {
	for len(r.events) > 0 && r.events[0].at <= t {
		ev := heap.Pop(&r.events).(*refEvent)
		if ev.fn == nil {
			r.cancelled--
			continue
		}
		if ev.at > r.now {
			r.now = ev.at
		}
		fn := ev.fn
		ev.fn = nil // a handle to a fired event is a stopped one
		r.executed++
		fn()
	}
	if r.now < t {
		r.now = t
	}
}

func (r *refSim) NextLiveAt() (time.Duration, bool) {
	for len(r.events) > 0 {
		if ev := r.events[0]; ev.fn != nil {
			return ev.at, true
		}
		heap.Pop(&r.events)
		r.cancelled--
	}
	return 0, false
}

// Offsets a script schedules at, relative to the clock: the past, the
// present, inside the slot being drained, a few slots out, either side
// of the wheel's horizon, and far beyond it.
const (
	slotWidth = time.Duration(1) << slotShift
	horizon   = wheelSlots * slotWidth
)

var scriptOffsets = [...]time.Duration{
	-5 * time.Millisecond, 0, 1, slotWidth / 3, slotWidth - 1, slotWidth, slotWidth + 1,
	3 * slotWidth, 40 * slotWidth, 700 * slotWidth,
	horizon - slotWidth, horizon - 1, horizon, horizon + 1, horizon + slotWidth,
	2 * horizon, 5*horizon + 12345,
}

// play drives q through script, two bytes an operation, and returns
// everything observable: which event ran when, and after every
// operation the clock, the counters and (sometimes) the earliest live
// event. Events schedule children and cancel other events from inside
// their callbacks, so posts land in the slot being drained and
// compaction runs mid-dispatch.
func play(q queueUnderTest, script []byte) []string {
	var (
		trace   []string
		cancels []func()
		stops   []func()
		nextID  int
	)
	pick := func(fs []func(), b byte) func() {
		if len(fs) == 0 {
			return func() {}
		}
		return fs[int(b)%len(fs)]
	}
	var body func(depth int, b byte) func()
	body = func(depth int, b byte) func() {
		id := nextID
		nextID++
		return func() {
			trace = append(trace, fmt.Sprintf("run %d @%v", id, q.Now()))
			switch {
			case depth >= 3:
			case id%3 == 0:
				off := scriptOffsets[(id+int(b))%len(scriptOffsets)]
				cancels = append(cancels, q.at(q.Now()+off, body(depth+1, b+1)))
			case id%7 == 1:
				pick(cancels, b)()
			case id%11 == 2:
				q.Schedule(q.Now(), body(depth+1, b+1))
			}
		}
	}
	for i := 0; i+1 < len(script); i += 2 {
		op, b := script[i], script[i+1]
		off := scriptOffsets[int(b)%len(scriptOffsets)]
		switch op % 10 {
		case 0, 1:
			cancels = append(cancels, q.at(q.Now()+off, body(0, b)))
		case 2:
			cancels = append(cancels, q.after(off, body(0, b)))
		case 3:
			q.Schedule(q.Now()+off, body(0, b))
		case 4:
			pick(cancels, b)()
		case 5:
			q.RunUntil(max(q.Now()+off, 0)) // a negative bound means "no bound" to Sim
		case 6:
			at, ok := q.NextLiveAt()
			trace = append(trace, fmt.Sprintf("next %v %v", at, ok))
		case 7:
			if len(stops) < 3 {
				period := time.Duration(b%20+1) * 20 * slotWidth
				stops = append(stops, q.every(period, body(3, b)))
			} else {
				pick(stops, b)()
			}
		case 8:
			// A burst of timers, most cancelled at once: compaction.
			first := len(cancels)
			for k := 0; k < 100; k++ {
				cancels = append(cancels, q.at(q.Now()+scriptOffsets[(k+int(b))%len(scriptOffsets)], body(2, b)))
			}
			for k := 0; k < 90; k++ {
				cancels[first+(k*7+int(b))%100]()
			}
		case 9:
			q.RunUntil(q.Now() + time.Duration(b)*slotWidth/16)
		}
		trace = append(trace, fmt.Sprintf("op %d: now=%v executed=%d pending=%d cancelled=%d",
			i/2, q.Now(), q.Executed(), q.Pending(), q.Cancelled()))
	}
	for _, stop := range stops {
		stop()
	}
	q.RunUntil(q.Now() + 7*horizon)
	at, ok := q.NextLiveAt()
	trace = append(trace, fmt.Sprintf("end: now=%v executed=%d pending=%d cancelled=%d next=%v %v",
		q.Now(), q.Executed(), q.Pending(), q.Cancelled(), at, ok))
	return trace
}

func checkAgainstReference(t *testing.T, script []byte) {
	t.Helper()
	got := play(calendarSim{New(1)}, script)
	want := play(&refSim{}, script)
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("script %x: traces diverge at line %d:\ncalendar:  %s\nreference: %s", script, i, g, w)
		}
	}
}

// TestQueueMatchesReferenceHeap: random interleavings of At, After,
// Schedule, Cancel, RunUntil, NextLiveAt and tickers leave the calendar
// queue and a plain container/heap in the same state after every step,
// having run the same events at the same instants in the same order.
func TestQueueMatchesReferenceHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 400; trial++ {
		script := make([]byte, 2*(20+rng.Intn(300)))
		rng.Read(script)
		checkAgainstReference(t, script)
	}
}

// TestQueueHorizonAndIdleClock spells out the cases the random scripts
// only hit by chance.
func TestQueueHorizonAndIdleClock(t *testing.T) {
	s := New(1)
	var order []int
	note := func(id int) func() { return func() { order = append(order, id) } }

	// Either side of the horizon, posted in reverse.
	s.At(horizon+slotWidth, note(3))
	s.At(horizon, note(2))
	s.At(horizon-1, note(1))
	s.At(0, note(0))
	if len(s.far) != 2 || s.inWheel != 1 || len(s.near) != 1 {
		t.Fatalf("near=%d wheel=%d far=%d events, want 1/1/2", len(s.near), s.inWheel, len(s.far))
	}
	s.Run()
	if fmt.Sprint(order) != "[0 1 2 3]" {
		t.Fatalf("order across the horizon = %v", order)
	}

	// A clock run far past the last event takes the cursor with it: what
	// is posted next goes on the wheel, not beyond it.
	s.RunUntil(s.Now() + 9*horizon)
	s.After(slotWidth*3, note(4))
	if len(s.far) != 0 || s.inWheel != 1 {
		t.Fatalf("after an idle jump: wheel=%d far=%d events, want 1/0", s.inWheel, len(s.far))
	}

	// A shorter jump brings an event from beyond the horizon within a turn
	// of the cursor; it must come onto the wheel then, or the later event
	// posted onto the wheel next would hide it from a bounded run.
	s.Run()
	s.After(horizon+slotWidth, note(41))
	s.RunUntil(s.Now() + 5*slotWidth)
	s.After(horizon-slotWidth, note(42))
	s.RunUntil(s.Now() + horizon - 3*slotWidth)
	if fmt.Sprint(order) != "[0 1 2 3 4 41]" {
		t.Fatalf("order after a bounded run between two events = %v", order)
	}
	s.Run()

	// An event that posts into the slot being drained, before and after
	// events already loaded from it.
	base := s.Now() + 10*slotWidth
	s.At(base, func() {
		order = append(order, 5)
		s.At(base+2, note(7))
		s.At(base, note(6)) // same instant: after everything already queued there
	})
	s.At(base+3, note(8))
	s.At(base, note(55))
	s.Run()
	if fmt.Sprint(order) != "[0 1 2 3 4 41 42 5 55 6 7 8]" {
		t.Fatalf("order = %v", order)
	}
}

// FuzzQueueOrder is the native fuzz target over the same differential
// check; the seed corpus covers each operation.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{0, 1, 0, 12, 5, 14, 6, 0})
	f.Add([]byte{8, 3, 5, 9, 8, 4, 9, 200, 6, 0, 5, 16})
	f.Add([]byte{7, 10, 7, 3, 0, 2, 9, 255, 9, 255, 7, 0, 5, 15, 4, 1})
	f.Add([]byte{3, 0, 3, 0, 2, 0, 1, 13, 1, 11, 5, 11, 6, 0, 5, 13, 6, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			t.Skip("long scripts add time, not coverage")
		}
		checkAgainstReference(t, script)
	})
}
