package dedup

import (
	"container/list"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddAndContains(t *testing.T) {
	s := New[uint64](4)
	if s.Add(1) {
		t.Fatal("fresh key reported as duplicate")
	}
	if !s.Add(1) {
		t.Fatal("repeated key not reported as duplicate")
	}
	if !s.Contains(1) || s.Contains(2) {
		t.Fatal("membership wrong")
	}
	if s.Len() != 1 || s.Cap() != 4 {
		t.Fatalf("Len=%d Cap=%d", s.Len(), s.Cap())
	}
}

func TestEvictsLeastRecent(t *testing.T) {
	s := New[int](3)
	s.Add(1)
	s.Add(2)
	s.Add(3)
	s.Contains(1) // refresh 1: the LRU is now 2
	s.Add(4)      // evicts 2
	if s.Contains(2) {
		t.Fatal("least-recently-seen key survived eviction")
	}
	for _, k := range []int{1, 3, 4} {
		if !s.Contains(k) {
			t.Fatalf("key %d wrongly evicted", k)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
}

func TestAddRefreshesRecency(t *testing.T) {
	s := New[int](2)
	s.Add(1)
	s.Add(2)
	s.Add(1) // duplicate: refresh, making 2 the LRU
	s.Add(3) // evicts 2
	if s.Contains(2) || !s.Contains(1) || !s.Contains(3) {
		t.Fatal("Add did not refresh recency of a duplicate")
	}
}

func TestBoundHolds(t *testing.T) {
	s := New[int](16)
	for i := 0; i < 1000; i++ {
		s.Add(i)
	}
	if s.Len() != 16 {
		t.Fatalf("Len = %d, want 16", s.Len())
	}
}

// listSeen is the previous implementation — container/list plus a map
// of element pointers — kept as the reference the slab is checked
// against: exact LRU order is what keeps every seeded run's duplicate
// suppression, and with it every fingerprint, unchanged.
type listSeen[K comparable] struct {
	cap int
	ll  *list.List // front = most recently seen
	m   map[K]*list.Element
}

func newListSeen[K comparable](cap int) *listSeen[K] {
	return &listSeen[K]{cap: cap, ll: list.New(), m: make(map[K]*list.Element)}
}

func (s *listSeen[K]) Contains(k K) bool {
	e, ok := s.m[k]
	if ok {
		s.ll.MoveToFront(e)
	}
	return ok
}

func (s *listSeen[K]) Add(k K) bool {
	if e, ok := s.m[k]; ok {
		s.ll.MoveToFront(e)
		return true
	}
	s.m[k] = s.ll.PushFront(k)
	if len(s.m) > s.cap {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.m, oldest.Value.(K))
	}
	return false
}

// TestMatchesListImplementation drives random Add/Contains sequences,
// over key ranges both smaller and larger than the bound, through the
// slab and the reference and requires identical answers, sizes and —
// by draining — identical eviction order.
func TestMatchesListImplementation(t *testing.T) {
	f := func(capSeed uint8, keyRange uint8, ops []uint16) bool {
		bound := int(capSeed)%40 + 1
		keys := uint16(keyRange)%120 + 1
		got, want := New[uint16](bound), newListSeen[uint16](bound)
		for _, op := range ops {
			k := op >> 1 % keys
			if op&1 == 0 {
				if got.Add(k) != want.Add(k) {
					return false
				}
			} else if got.Contains(k) != want.Contains(k) {
				return false
			}
			if got.Len() != len(want.m) {
				return false
			}
		}
		// Same recency order: fresh keys push the old ones out one by
		// one, and both must lose them in the same sequence.
		for i := 0; i < bound; i++ {
			fresh := uint16(1000 + i)
			got.Add(fresh)
			want.Add(fresh)
			for k := uint16(0); k < keys; k++ {
				_, inGot := got.m[k]
				_, inWant := want.m[k]
				if inGot != inWant {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

// TestMemoryFollowsUse: an empty set holds no slab, a lightly used one
// a slab near its size — not the bound — and a full one allocates
// nothing per Add.
func TestMemoryFollowsUse(t *testing.T) {
	s := New[uint64](4096)
	if cap(s.slab) != 0 {
		t.Fatalf("empty set reserved %d slots", cap(s.slab))
	}
	for i := uint64(0); i < 300; i++ {
		s.Add(i)
	}
	if c := cap(s.slab); c < 300 || c > 512 {
		t.Fatalf("300 keys sit on a %d-slot slab, want ≤ 512", c)
	}
	for i := uint64(300); i < 10000; i++ {
		s.Add(i)
	}
	if len(s.slab) != 4096 || cap(s.slab) != 4096 {
		t.Fatalf("full set: slab len %d cap %d, want 4096", len(s.slab), cap(s.slab))
	}
	i := uint64(10000)
	if allocs := testing.AllocsPerRun(1000, func() {
		i++
		s.Add(i - (i+1)%2) // odd: new key evicting the oldest; even: a hit
	}); allocs != 0 {
		t.Fatalf("full set allocates %.2f times per Add, want 0", allocs)
	}
}
