package tchord

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"whisper/internal/identity"
	"whisper/internal/ppss"
	"whisper/internal/tman"
)

func TestBetween(t *testing.T) {
	cases := []struct {
		x, a, b ChordID
		want    bool
	}{
		{5, 1, 10, true},
		{1, 1, 10, false}, // exclusive at a
		{10, 1, 10, true}, // inclusive at b
		{15, 1, 10, false},
		{0, 250, 10, true}, // wrap-around
		{251, 250, 10, true},
		{249, 250, 10, false},
		{7, 7, 7, true}, // a == b is the full circle: a single node owns everything
		{9, 7, 7, true},
	}
	for _, c := range cases {
		if got := between(c.x, c.a, c.b); got != c.want {
			t.Errorf("between(%d, %d, %d) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
}

// Property: exactly one of "x in (a,b]" and "x in (b,a]" holds for
// distinct a, b, x (the ring is partitioned).
func TestPropertyBetweenPartitions(t *testing.T) {
	f := func(x, a, b uint64) bool {
		X, A, B := ChordID(x), ChordID(a), ChordID(b)
		if A == B || X == A || X == B {
			return true
		}
		return between(X, A, B) != between(X, B, A)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Fatal(err)
	}
}

// Property: clockwise distances around a triangle compose: d(a,b) +
// d(b,c) ≡ d(a,c) (mod 2^64) — the metric is consistent.
func TestPropertyDistComposition(t *testing.T) {
	f := func(a, b, c uint64) bool {
		A, B, C := ChordID(a), ChordID(b), ChordID(c)
		return distCW(A, B)+distCW(B, C) == distCW(A, C)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRankers(t *testing.T) {
	base := peer{CID: 100}
	near := peer{CID: 110, E: ppss.Entry{ID: 1}}
	far := peer{CID: 300, E: ppss.Entry{ID: 2}}
	behind := peer{CID: 90, E: ppss.Entry{ID: 3}} // almost a full lap clockwise

	var sr succRanker
	if !sr.Less(base, near, far) || sr.Less(base, behind, near) {
		t.Fatal("succRanker ordering wrong")
	}
	var pr predRanker
	if !pr.Less(base, behind, near) {
		t.Fatal("predRanker should prefer counter-clockwise proximity")
	}
	if !sr.Equal(near, peer{CID: 999, E: ppss.Entry{ID: 1}}) {
		t.Fatal("ranker equality must be by member ID")
	}
}

func TestMergeFingerLevels(t *testing.T) {
	n := &Node{cid: 0, fingers: map[int]peer{}}
	// A node at distance 2^10+1 belongs to level 10.
	p1 := peer{CID: ChordID(1<<10 + 1), E: ppss.Entry{ID: 1}}
	n.mergeFinger(p1)
	if _, ok := n.fingers[10]; !ok {
		t.Fatalf("fingers = %v, want level 10", n.fingers)
	}
	// A closer node at the same level replaces it.
	p2 := peer{CID: ChordID(1 << 10), E: ppss.Entry{ID: 2}}
	n.mergeFinger(p2)
	if n.fingers[10].E.ID != 2 {
		t.Fatal("closer finger did not replace")
	}
	// A farther node at the same level does not.
	n.mergeFinger(p1)
	if n.fingers[10].E.ID != 2 {
		t.Fatal("farther finger replaced a closer one")
	}
	// Distance zero (self) is ignored.
	n.mergeFinger(peer{CID: 0})
	if len(n.fingers) != 1 {
		t.Fatal("self entered the finger table")
	}
}

func TestClosestPrecedingPureMath(t *testing.T) {
	n := &Node{cid: 0, fingers: map[int]peer{}}
	n.succ = tman.New(peer{CID: 0}, 4, succRanker{})
	n.pred = tman.New(peer{CID: 0}, 4, predRanker{})
	for _, cid := range []ChordID{100, 1000, 60000} {
		n.merge0(peer{CID: cid, E: ppss.Entry{ID: identity.NodeID(cid)}})
	}
	// For key 1500 the best next hop is 1000 (closest preceding).
	next, ok := n.closestPreceding(1500)
	if !ok || next.CID != 1000 {
		t.Fatalf("closestPreceding(1500) = %v, %v", next.CID, ok)
	}
	// For key 50 nothing precedes it except... 60000? No: hops must lie
	// in (0, 50); none do, so the best successor is used.
	next, ok = n.closestPreceding(50)
	if !ok || next.CID != 100 {
		t.Fatalf("closestPreceding(50) fallback = %v, %v", next.CID, ok)
	}
}

// merge0 is a test-only merge that avoids the PPSS instance.
func (n *Node) merge0(p peer) {
	n.succ.Merge(p)
	n.pred.Merge(p)
	n.mergeFinger(p)
}

// TestEncodeExchangeIsDeterministic encodes one node's exchange many
// times: the bytes must not depend on finger-map iteration order. The
// node knows more peers than the 32 an exchange carries, so the order
// also decides which fingers are cut.
func TestEncodeExchangeIsDeterministic(t *testing.T) {
	n := &Node{inst: &ppss.Instance{}, cid: 0, fingers: map[int]peer{}}
	n.succ = tman.New(peer{CID: 0}, 4, succRanker{})
	n.pred = tman.New(peer{CID: 0}, 4, predRanker{})
	for lvl := 8; lvl < 64; lvl++ {
		cid := ChordID(1)<<uint(lvl) + 1
		n.merge0(peer{CID: cid, E: ppss.Entry{ID: identity.NodeID(lvl)}})
	}
	if len(n.fingers) <= 32 {
		t.Fatalf("%d fingers; the check needs more than an exchange carries", len(n.fingers))
	}
	want := n.encodeExchange(tagTManReq)
	for i := 0; i < 20; i++ {
		if got := n.encodeExchange(tagTManReq); !bytes.Equal(got, want) {
			t.Fatalf("encoding %d differs from the first", i+1)
		}
	}
}
