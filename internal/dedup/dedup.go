// Package dedup provides a small bounded seen-set with LRU eviction,
// used by protocol layers to make message handling idempotent under
// network duplication and replay: the WCL remembers recently seen
// forwards and delivered path IDs, the PPSS remembers served exchange
// sequence numbers. The bound keeps memory constant under adversarial
// traffic; eviction of old entries is safe because a duplicate older
// than the window is indistinguishable from a fresh message anyway
// (exactly-once within the window, at-most-window-late otherwise).
package dedup

import "math"

// entry is one remembered key, linked into the recency order by slab
// index (-1 = none) rather than by pointer: the whole set is two heap
// objects however many keys it holds, and the collector has nothing to
// trace inside the slab when K is pointer-free.
type entry[K comparable] struct {
	key        K
	prev, next int32
}

// Seen is a bounded set of comparable keys with least-recently-used
// eviction. The zero value is not usable; construct with New. Not safe
// for concurrent use — callers run on a serialized dispatch context,
// per the transport execution contract.
//
// Memory follows use, not the bound: index and slab start empty and
// grow as keys arrive (every WCL carries three of these and most nodes
// never fill any), and once the bound is reached the evicted key's
// slot is reused, so a full set allocates nothing per Add.
type Seen[K comparable] struct {
	cap        int
	m          map[K]int32
	slab       []entry[K]
	head, tail int32 // most and least recently seen; -1 when empty
}

// New creates a seen-set bounded to cap entries.
func New[K comparable](cap int) *Seen[K] {
	if cap <= 0 || cap > math.MaxInt32 {
		panic("dedup: capacity must be positive and fit the int32 links")
	}
	return &Seen[K]{cap: cap, m: make(map[K]int32), head: -1, tail: -1}
}

// Len returns the current number of remembered keys.
func (s *Seen[K]) Len() int { return len(s.m) }

// Cap returns the bound.
func (s *Seen[K]) Cap() int { return s.cap }

// Contains reports whether k was seen within the window, refreshing its
// recency when present.
func (s *Seen[K]) Contains(k K) bool {
	i, ok := s.m[k]
	if ok {
		s.touch(i)
	}
	return ok
}

// Add remembers k, reporting whether it was already present (a
// duplicate). The least recently seen key is evicted when the bound is
// exceeded.
func (s *Seen[K]) Add(k K) bool {
	if i, ok := s.m[k]; ok {
		s.touch(i)
		return true
	}
	var i int32
	if len(s.slab) < s.cap {
		i = int32(len(s.slab))
		s.grow()
		s.slab = append(s.slab, entry[K]{key: k})
	} else {
		i = s.tail
		s.unlink(i)
		delete(s.m, s.slab[i].key)
		s.slab[i].key = k
	}
	s.pushFront(i)
	s.m[k] = i
	return false
}

// grow makes room for one more entry: double while small, then fixed
// steps, never past the bound — append's doubling would park a
// 2,100-key set on a 4,096-slot array.
func (s *Seen[K]) grow() {
	if len(s.slab) < cap(s.slab) {
		return
	}
	const step = 256
	n := 2 * len(s.slab)
	if n < 8 {
		n = 8
	} else if n > len(s.slab)+step {
		n = len(s.slab) + step
	}
	if n > s.cap {
		n = s.cap
	}
	grown := make([]entry[K], len(s.slab), n)
	copy(grown, s.slab)
	s.slab = grown
}

// touch makes entry i the most recently seen.
func (s *Seen[K]) touch(i int32) {
	if s.head != i {
		s.unlink(i)
		s.pushFront(i)
	}
}

func (s *Seen[K]) unlink(i int32) {
	e := &s.slab[i]
	if e.prev >= 0 {
		s.slab[e.prev].next = e.next
	} else {
		s.head = e.next
	}
	if e.next >= 0 {
		s.slab[e.next].prev = e.prev
	} else {
		s.tail = e.prev
	}
}

func (s *Seen[K]) pushFront(i int32) {
	e := &s.slab[i]
	e.prev, e.next = -1, s.head
	if s.head >= 0 {
		s.slab[s.head].prev = i
	} else {
		s.tail = i
	}
	s.head = i
}
