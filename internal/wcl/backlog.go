// Package wcl implements the WHISPER Communication Layer (§III): the
// connection backlog of recently usable NAT-traversal routes, onion
// path construction over four-node paths S → A → B → D, forwarding with
// per-hop peeling, end-to-end acknowledgements, and the retry policy
// whose outcomes Table I reports.
package wcl

import (
	"math/rand"
	"time"

	"whisper/internal/identity"
	"whisper/internal/nylon"
)

// Backlog is the connection backlog (CB) of §III-A: a FIFO queue of the
// nodes with which a successful (hence bidirectional) gossip exchange
// recently happened, i.e. the nodes towards which a NAT-traversal route
// is currently warm. Its size is bounded to twice the PSS view size, so
// entries rotate out well inside the NAT association lease.
type Backlog struct {
	cap     int
	entries []BacklogEntry // newest first
}

// BacklogEntry is one warm route.
type BacklogEntry struct {
	Desc nylon.Descriptor
	At   time.Duration // virtual insertion time
}

// NewBacklog creates a backlog bounded to cap entries (the paper uses
// 2×c).
func NewBacklog(cap int) *Backlog {
	if cap <= 0 {
		panic("wcl: backlog capacity must be positive")
	}
	return &Backlog{cap: cap}
}

// Cap returns the backlog bound.
func (b *Backlog) Cap() int { return b.cap }

// Len returns the current number of entries.
func (b *Backlog) Len() int { return len(b.entries) }

// Insert records a fresh exchange with desc at virtual time now. An
// existing entry for the same node moves to the front with the new
// route; otherwise the entry is pushed at the head and the tail is
// trimmed to capacity. It returns the entries evicted by the trim.
func (b *Backlog) Insert(desc nylon.Descriptor, now time.Duration) []BacklogEntry {
	for i, e := range b.entries {
		if e.Desc.ID == desc.ID {
			copy(b.entries[1:i+1], b.entries[:i])
			b.entries[0] = BacklogEntry{Desc: desc, At: now}
			return nil
		}
	}
	b.entries = append([]BacklogEntry{{Desc: desc, At: now}}, b.entries...)
	if len(b.entries) > b.cap {
		evicted := append([]BacklogEntry(nil), b.entries[b.cap:]...)
		b.entries = b.entries[:b.cap]
		return evicted
	}
	return nil
}

// Remove drops the entry for id, reporting whether it was present.
func (b *Backlog) Remove(id identity.NodeID) bool {
	for i, e := range b.entries {
		if e.Desc.ID == id {
			b.entries = append(b.entries[:i], b.entries[i+1:]...)
			return true
		}
	}
	return false
}

// Contains reports whether id is in the backlog.
func (b *Backlog) Contains(id identity.NodeID) bool {
	for _, e := range b.entries {
		if e.Desc.ID == id {
			return true
		}
	}
	return false
}

// Entries returns a copy of the backlog content, newest first.
func (b *Backlog) Entries() []BacklogEntry {
	return append([]BacklogEntry(nil), b.entries...)
}

// PublicCount returns the number of P-node entries.
func (b *Backlog) PublicCount() int {
	n := 0
	for _, e := range b.entries {
		if e.Desc.Public {
			n++
		}
	}
	return n
}

// Publics returns the P-node entries, newest first.
func (b *Backlog) Publics() []BacklogEntry {
	var out []BacklogEntry
	for _, e := range b.entries {
		if e.Desc.Public {
			out = append(out, e)
		}
	}
	return out
}

// EachPublic calls fn for the P-node entries, newest first, until it
// returns false — Publics for callers on the message path, which take
// the first few and should not pay for a copy of all of them.
func (b *Backlog) EachPublic(fn func(BacklogEntry) bool) {
	for _, e := range b.entries {
		if e.Desc.Public && !fn(e) {
			return
		}
	}
}

// Pick returns a uniformly random entry whose ID is not in exclude.
func (b *Backlog) Pick(rng *rand.Rand, exclude map[identity.NodeID]bool) (BacklogEntry, bool) {
	var candidates []BacklogEntry
	for _, e := range b.entries {
		if !exclude[e.Desc.ID] {
			candidates = append(candidates, e)
		}
	}
	if len(candidates) == 0 {
		return BacklogEntry{}, false
	}
	return candidates[rng.Intn(len(candidates))], true
}

// PickPublic returns a random P-node entry not in exclude.
func (b *Backlog) PickPublic(rng *rand.Rand, exclude map[identity.NodeID]bool) (BacklogEntry, bool) {
	var candidates []BacklogEntry
	for _, e := range b.entries {
		if e.Desc.Public && !exclude[e.Desc.ID] {
			candidates = append(candidates, e)
		}
	}
	if len(candidates) == 0 {
		return BacklogEntry{}, false
	}
	return candidates[rng.Intn(len(candidates))], true
}
