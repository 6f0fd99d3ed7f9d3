package simnet

import (
	"container/heap"
	"math/bits"
	"time"
)

// The event queue is a calendar queue. Virtual time is cut into slots of
// 2^slotShift ns; an event's slot is at >> slotShift. Three containers
// hold the pending events, told apart by how their slot compares with
// the cursor cur:
//
//   - slot <= cur: near, a small binary heap on (at, seq). It is the only
//     container events are popped from, so dispatch order is exactly
//     (time, insertion) however coarse the slots are;
//   - cur < slot < cur+wheelSlots: wheel[slot&wheelMask], an intrusive
//     unordered list (the link is event.next, so queuing allocates
//     nothing). Posting is O(1) whatever the backlog;
//   - slot >= cur+wheelSlots: far, a container/heap beyond the wheel's
//     horizon. Long timers pay its log n once on the way in and once when
//     the cursor comes within a turn of them (migrate).
//
// When near runs dry the cursor jumps to the next occupied slot — the
// occupancy bitmap finds it in a few word scans — and that slot's list is
// heapified into near. Everything still in the wheel or in far is
// strictly later than everything in near, which is what makes near's
// order the queue's order. All three conditions hold whenever an event
// is about to be popped: every cursor move ends with migrate.
//
// The geometry is not a tuning knob. Slot width only sets how many events
// the near heap holds at once; the horizon (2^13 slots of 2.1 ms, 17.2 s)
// only has to cover the timers a node re-arms every cycle — the 10 s
// gossip period — so they stay off far; 64 KB of slot heads per Sim is
// what a 300-node world can carry unnoticed.
const (
	slotShift  = 21 // 2^21 ns ≈ 2.1 ms per slot
	wheelSlots = 1 << 13
	wheelMask  = wheelSlots - 1
)

type event struct {
	at   time.Duration
	seq  uint64
	fn   func()
	next *event // wheel slot list
}

func slotOf(at time.Duration) int64 { return int64(at) >> slotShift }

func (ev *event) before(o *event) bool {
	return ev.at < o.at || (ev.at == o.at && ev.seq < o.seq)
}

// place puts a pending event into the container its slot calls for.
func (s *Sim) place(ev *event) {
	slot := slotOf(ev.at)
	switch {
	case slot <= s.cur:
		s.near = append(s.near, ev)
		s.up(len(s.near) - 1)
	case slot < s.cur+wheelSlots:
		i := slot & wheelMask
		ev.next = s.wheel[i]
		s.wheel[i] = ev
		s.occ[i>>6] |= 1 << (i & 63)
		s.inWheel++
	default:
		heap.Push(&s.far, ev)
	}
}

// advance refills an empty near from the next occupied slot, provided
// that slot starts at or before limit (limit < 0: no bound). It reports
// whether near now holds anything. When it stops short at the bound the
// cursor still moves up to limit's slot, so what a caller posts after
// RunUntil(limit) lands in the wheel, not beyond it.
func (s *Sim) advance(limit time.Duration) bool {
	next := int64(-1)
	switch {
	case s.inWheel > 0:
		next = s.nextOccupied()
	case len(s.far) > 0:
		next = slotOf(s.far[0].at)
	}
	if bound := slotOf(limit); next < 0 || (limit >= 0 && next > bound) {
		if limit >= 0 && bound > s.cur {
			s.cur = bound
			s.migrate()
		}
		return false
	}
	s.cur = next
	i := next & wheelMask
	for ev := s.wheel[i]; ev != nil; {
		following := ev.next
		ev.next = nil
		s.near = append(s.near, ev)
		s.inWheel--
		ev = following
	}
	s.wheel[i] = nil
	s.occ[i>>6] &^= 1 << (i & 63)
	s.heapifyNear()
	s.migrate()
	return true
}

// nextOccupied returns the first occupied slot after the cursor. The
// wheel must not be empty. Its events all lie less than one turn ahead
// of the cursor, so the circular distance from cur+1 is the real one.
func (s *Sim) nextOccupied() int64 {
	from := (s.cur + 1) & wheelMask
	w := from >> 6
	word := s.occ[w] &^ (1<<(from&63) - 1)
	for word == 0 {
		w = (w + 1) & int64(len(s.occ)-1)
		word = s.occ[w]
	}
	i := w<<6 | int64(bits.TrailingZeros64(word))
	return s.cur + 1 + (i-from)&wheelMask
}

// migrate moves the events the cursor has come within one wheel turn of
// out of far. Called after every cursor move.
func (s *Sim) migrate() {
	for len(s.far) > 0 && slotOf(s.far[0].at) < s.cur+wheelSlots {
		s.place(heap.Pop(&s.far).(*event))
	}
}

func (s *Sim) up(i int) {
	h := s.near
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

func (s *Sim) down(i int) {
	h := s.near
	ev := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(ev) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = ev
}

func (s *Sim) heapifyNear() {
	for i := len(s.near)/2 - 1; i >= 0; i-- {
		s.down(i)
	}
}

// popNear removes near's first event.
func (s *Sim) popNear() {
	n := len(s.near) - 1
	s.near[0] = s.near[n]
	s.near[n] = nil
	s.near = s.near[:n]
	if n > 1 {
		s.down(0)
	}
}

// maybeCompact drops cancelled events once they outnumber the live
// ones, in one pass over the three containers.
func (s *Sim) maybeCompact() {
	if n := s.Pending(); n < 64 || s.cancelled*2 <= n {
		return
	}
	s.near = s.sweep(s.near)
	s.heapifyNear()
	s.far = s.sweep(s.far)
	heap.Init(&s.far)
	for w, word := range s.occ[:] {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			link := &s.wheel[i]
			for ev := *link; ev != nil; ev = *link {
				if ev.fn != nil {
					link = &ev.next
					continue
				}
				*link = ev.next
				ev.next = nil
				s.inWheel--
				s.release(ev)
			}
			if s.wheel[i] == nil {
				s.occ[w] &^= 1 << (i & 63)
			}
		}
	}
	s.cancelled = 0
}

// sweep releases the cancelled events of h and returns the live ones,
// in h's storage and in no particular order.
func (s *Sim) sweep(h []*event) []*event {
	live := h[:0]
	for _, ev := range h {
		if ev.fn != nil {
			live = append(live, ev)
		} else {
			s.release(ev)
		}
	}
	clear(h[len(live):])
	return live
}

// eventHeap is the container/heap behind Sim.far.
type eventHeap []*event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].before(h[j]) }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
