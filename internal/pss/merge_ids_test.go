package pss

import (
	"math/rand"
	"testing"

	"whisper/internal/identity"
)

// owned is an item that knows whether the view may hold on to it.
type owned struct {
	id  identity.NodeID
	pub bool
	own bool
}

func (o owned) Key() identity.NodeID { return o.id }
func (o owned) IsPublic() bool       { return o.pub }

// TestMergeCyclonIDsKeepsWhatEntersTheView drives random merges through
// both entry points: MergeCyclonIDs (sent IDs, keep hook) must leave the
// view exactly as MergeCyclon (sent entries) does, every value that
// ended up in the view must have passed through keep, and keep must not
// be called for more values than were received (plus the evicted ones
// the Π bias may pull back).
func TestMergeCyclonIDsKeepsWhatEntersTheView(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for round := 0; round < 2000; round++ {
		o := SelectOpts{Capacity: 10, Self: 99, MinPublic: rng.Intn(5)}
		random := func(own bool) Entry[owned] {
			return Entry[owned]{
				Val: owned{id: identity.NodeID(1 + rng.Intn(40)), pub: rng.Intn(3) == 0, own: own},
				Age: uint16(rng.Intn(20)),
			}
		}
		a, b := NewView[owned](10), NewView[owned](10)
		for i, n := 0, rng.Intn(11); i < n; i++ {
			e := random(true)
			a.Insert(e.Val, e.Age)
			b.Insert(e.Val, e.Age)
		}
		sent := a.Sample(rng, 5)
		var ids []identity.NodeID
		for _, e := range sent {
			ids = append(ids, e.Val.id)
		}
		received := make([]Entry[owned], rng.Intn(7))
		for i := range received {
			received[i] = random(false)
		}
		if rng.Intn(4) == 0 && len(received) > 0 {
			received[0].Val.id = o.Self
		}

		calls := 0
		MergeCyclonIDs(a, ids, received, o, func(v owned) owned {
			calls++
			v.own = true
			return v
		})
		MergeCyclon(b, sent, received, o)

		got, want := a.Entries(), b.Entries()
		if len(got) != len(want) {
			t.Fatalf("round %d: %d entries via IDs, %d via entries", round, len(got), len(want))
		}
		for i := range got {
			if !got[i].Val.own {
				t.Fatalf("round %d: entry %d (%v) entered the view without passing through keep", round, i, got[i].Val.id)
			}
			got[i].Val.own = want[i].Val.own
			if got[i] != want[i] {
				t.Fatalf("round %d: entry %d is %+v via IDs, %+v via entries", round, i, got[i], want[i])
			}
		}
		if calls > 2*len(received) {
			t.Fatalf("round %d: keep called %d times for %d received entries", round, calls, len(received))
		}
	}
}

// TestMergeCyclonAllocatesNothing: with buffers of the size in use the
// merge's working lists (replaceable, evicted, Π candidates) and their
// sort stay on the stack.
func TestMergeCyclonAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var all []Entry[item]
	for i := 0; i < 20; i++ {
		all = append(all, e(identity.NodeID(i+1), i%3 == 0, uint16(rng.Intn(30))))
	}
	mine, sent, received := all[:10], all[:5], all[10:15]
	v := NewView[item](10)
	o := SelectOpts{Capacity: 10, Self: 99, MinPublic: 5}
	allocs := testing.AllocsPerRun(200, func() {
		v.Replace(mine)
		MergeCyclon(v, sent, received, o)
	})
	if allocs != 0 {
		t.Errorf("MergeCyclon allocates %.1f per merge, want 0", allocs)
	}
}
