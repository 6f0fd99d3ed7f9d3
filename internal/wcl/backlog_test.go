package wcl

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"whisper/internal/identity"
	"whisper/internal/nylon"
)

func desc(id identity.NodeID, pub bool) nylon.Descriptor {
	return nylon.Descriptor{ID: id, Public: pub}
}

func TestBacklogFIFOAndDedup(t *testing.T) {
	b := NewBacklog(3)
	b.Insert(desc(1, false), 1)
	b.Insert(desc(2, false), 2)
	b.Insert(desc(3, false), 3)
	es := b.Entries()
	if es[0].Desc.ID != 3 || es[2].Desc.ID != 1 {
		t.Fatalf("order: %v", es)
	}
	// Re-inserting an existing node moves it to the front.
	b.Insert(desc(1, false), 4)
	es = b.Entries()
	if es[0].Desc.ID != 1 || es[0].At != 4 || b.Len() != 3 {
		t.Fatalf("dedup move-to-front failed: %v", es)
	}
	// Overflow trims the tail and reports the eviction.
	evicted := b.Insert(desc(9, true), 5)
	if b.Len() != 3 || len(evicted) != 1 || evicted[0].Desc.ID != 2 {
		t.Fatalf("eviction: len=%d evicted=%v", b.Len(), evicted)
	}
}

func TestBacklogPublics(t *testing.T) {
	b := NewBacklog(5)
	b.Insert(desc(1, true), 1)
	b.Insert(desc(2, false), 2)
	b.Insert(desc(3, true), 3)
	if b.PublicCount() != 2 || len(b.Publics()) != 2 {
		t.Fatalf("public count = %d", b.PublicCount())
	}
	rng := rand.New(rand.NewSource(1))
	e, ok := b.PickPublic(rng, map[identity.NodeID]bool{3: true})
	if !ok || e.Desc.ID != 1 {
		t.Fatalf("PickPublic = %v, %v", e.Desc.ID, ok)
	}
	if _, ok := b.PickPublic(rng, map[identity.NodeID]bool{1: true, 3: true}); ok {
		t.Fatal("PickPublic ignored exclusions")
	}
}

func TestBacklogPickExcludes(t *testing.T) {
	b := NewBacklog(5)
	b.Insert(desc(1, false), 1)
	b.Insert(desc(2, false), 2)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		e, ok := b.Pick(rng, map[identity.NodeID]bool{2: true})
		if !ok || e.Desc.ID != 2 {
			if e.Desc.ID == 2 {
				t.Fatal("excluded entry picked")
			}
		}
	}
	if _, ok := b.Pick(rng, map[identity.NodeID]bool{1: true, 2: true}); ok {
		t.Fatal("Pick returned from empty candidate set")
	}
}

func TestBacklogRemoveContains(t *testing.T) {
	b := NewBacklog(3)
	b.Insert(desc(7, false), 1)
	if !b.Contains(7) || b.Contains(8) {
		t.Fatal("Contains wrong")
	}
	if !b.Remove(7) || b.Remove(7) {
		t.Fatal("Remove semantics wrong")
	}
}

// Property: after any insertion sequence, the backlog holds at most cap
// entries, all distinct, newest first.
func TestPropertyBacklogInvariants(t *testing.T) {
	f := func(ids []uint8, cap8 uint8) bool {
		cap := int(cap8%10) + 1
		b := NewBacklog(cap)
		for i, raw := range ids {
			b.Insert(desc(identity.NodeID(raw%20+1), raw%3 == 0), time.Duration(i))
		}
		if b.Len() > cap {
			return false
		}
		seen := map[identity.NodeID]bool{}
		last := time.Duration(1 << 62)
		for _, e := range b.Entries() {
			if seen[e.Desc.ID] {
				return false
			}
			seen[e.Desc.ID] = true
			if e.At > last {
				return false
			}
			last = e.At
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestOutcomeStrings(t *testing.T) {
	if Success.String() != "success" || AltSuccess.String() != "alt-success" || Failed.String() != "failed" {
		t.Fatal("outcome strings wrong")
	}
	if Outcome(9).String() == "" {
		t.Fatal("unknown outcome must still stringify")
	}
}

func TestConfigMixesClamp(t *testing.T) {
	c := Config{Mixes: 1}.withDefaults()
	if c.Mixes != 2 {
		t.Fatalf("Mixes=1 not clamped to 2 (got %d): one mix cannot hide both endpoints", c.Mixes)
	}
	if d := (Config{}).withDefaults(); d.Mixes != 2 || d.maxAttempts() != 1+d.MinPublic {
		t.Fatalf("defaults wrong: %+v", d)
	}
}
