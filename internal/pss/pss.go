// Package pss implements the data structures and policies of a
// gossip-based peer sampling service (Jelasity et al., "Gossip-based
// peer sampling"): aged partial views, the healer exchange strategy
// used by the paper (partner = oldest entry, retention = freshest
// entries), and the Π-biased truncation of WHISPER §III-B that keeps a
// minimum number of public nodes in every view.
//
// The package is transport-agnostic and generic over the entry payload:
// the Nylon layer instantiates it with NAT-aware descriptors, and the
// PPSS instantiates it with private-group entries carrying public keys
// and helper sets. All functions are pure or operate on local state, so
// the protocol logic is exhaustively unit-testable without a network.
//
// # Memory layout
//
// A View stores its entries in dense, exact-capacity, structure-of-
// arrays form: one value array and one age array, both allocated once
// at construction and indexed by slot. Views are the dominant per-node
// heap consumer of large simulated worlds (one view per node, held for
// the node's whole life), and the historical []Entry[T] form paid both
// the interleaved-age padding and append's capacity doubling — a
// 10-entry view ended up with room for 16 boxed entries. The packed
// layout is behavior-identical: every operation below preserves the
// exact slot order (and therefore the exact gossip output) of the boxed
// implementation, which TestViewPackedMatchesBoxed pins differentially
// and the fig5 golden pins end to end.
package pss

import (
	"cmp"
	"math/rand"
	"slices"

	"whisper/internal/identity"
)

// Item is the payload of a view entry.
type Item interface {
	// Key returns the node identifier this entry points to.
	Key() identity.NodeID
	// IsPublic reports whether the node is a P-node (directly
	// reachable, no NAT).
	IsPublic() bool
}

// MaxAge saturates entry ages, preventing wrap-around in very long runs.
const MaxAge = 1<<16 - 1

// Entry is one aged element of a view. Views no longer store entries in
// this boxed form — it remains the exchange currency of the package API
// (buffers, samples, Select).
type Entry[T Item] struct {
	Val T
	Age uint16
}

// View is a bounded partial view of the network, stored packed: vals
// and ages are parallel arrays of length capacity, of which the first n
// slots are live. Slot order carries protocol meaning (eviction scans,
// stable ties), so all mutations preserve it exactly as the boxed
// append/delete idioms did.
type View[T Item] struct {
	n    int
	vals []T
	ages []uint16
}

// NewView creates an empty view bounded to capacity entries. The full
// backing storage is allocated here, once; no later operation grows it.
func NewView[T Item](capacity int) *View[T] {
	if capacity <= 0 {
		panic("pss: view capacity must be positive")
	}
	return &View[T]{
		vals: make([]T, capacity),
		ages: make([]uint16, capacity),
	}
}

// Capacity returns the view bound.
func (v *View[T]) Capacity() int { return len(v.vals) }

// Len returns the current number of entries.
func (v *View[T]) Len() int { return v.n }

// entry materializes slot i in boxed form.
func (v *View[T]) entry(i int) Entry[T] { return Entry[T]{Val: v.vals[i], Age: v.ages[i]} }

// Entries returns a copy of the view content (nil when empty).
func (v *View[T]) Entries() []Entry[T] {
	if v.n == 0 {
		return nil
	}
	out := make([]Entry[T], v.n)
	for i := 0; i < v.n; i++ {
		out[i] = v.entry(i)
	}
	return out
}

// Values returns the payloads of all entries.
func (v *View[T]) Values() []T {
	return append([]T(nil), v.vals[:v.n]...)
}

// IDs returns the identifiers of all entries.
func (v *View[T]) IDs() []identity.NodeID {
	out := make([]identity.NodeID, v.n)
	for i := 0; i < v.n; i++ {
		out[i] = v.vals[i].Key()
	}
	return out
}

// IDsInto is IDs appending into dst[:0]; with a reusable dst of
// sufficient capacity it allocates nothing. The returned slice aliases
// dst. Report paths that walk every node's view each sampling interval
// (the overlay graph stream) use it to avoid one slice per node per
// walk.
func (v *View[T]) IDsInto(dst []identity.NodeID) []identity.NodeID {
	dst = dst[:0]
	for i := 0; i < v.n; i++ {
		dst = append(dst, v.vals[i].Key())
	}
	return dst
}

// Contains reports whether id is in the view.
func (v *View[T]) Contains(id identity.NodeID) bool {
	return v.index(id) >= 0
}

// Get returns the entry for id.
func (v *View[T]) Get(id identity.NodeID) (Entry[T], bool) {
	if i := v.index(id); i >= 0 {
		return v.entry(i), true
	}
	return Entry[T]{}, false
}

// removeAt deletes slot i, shifting later slots down (order-preserving,
// exactly like the boxed append(entries[:i], entries[i+1:]...)).
func (v *View[T]) removeAt(i int) {
	copy(v.vals[i:v.n-1], v.vals[i+1:v.n])
	copy(v.ages[i:v.n-1], v.ages[i+1:v.n])
	v.n--
	var zero T
	v.vals[v.n] = zero // drop references held by the vacated slot
}

// append adds an entry at the end. The caller guarantees n < capacity.
func (v *View[T]) append(val T, age uint16) {
	v.vals[v.n] = val
	v.ages[v.n] = age
	v.n++
}

// Remove deletes id from the view, reporting whether it was present.
// Used when a peer is detected as failed (§II-B membership management).
func (v *View[T]) Remove(id identity.NodeID) bool {
	if i := v.index(id); i >= 0 {
		v.removeAt(i)
		return true
	}
	return false
}

// Insert adds or refreshes an entry, keeping the lower age if the node
// is already present. If the view is full and id is new, the oldest
// entry is evicted. Used at bootstrap and when learning peers outside a
// shuffle.
func (v *View[T]) Insert(val T, age uint16) {
	if i := v.index(val.Key()); i >= 0 {
		if age <= v.ages[i] {
			v.vals[i] = val
			v.ages[i] = age
		}
		return
	}
	if v.n >= len(v.vals) {
		v.removeAt(v.oldestIndex())
	}
	v.append(val, age)
}

// AgeAll increments every entry's age (start of a gossip cycle).
func (v *View[T]) AgeAll() {
	for i := 0; i < v.n; i++ {
		if v.ages[i] < MaxAge {
			v.ages[i]++
		}
	}
}

// Oldest returns the entry with the highest age — the exchange partner
// under the healer strategy. ok is false for an empty view.
func (v *View[T]) Oldest() (Entry[T], bool) {
	if v.n == 0 {
		return Entry[T]{}, false
	}
	return v.entry(v.oldestIndex()), true
}

// Sample returns up to n distinct random entries, excluding any entry
// whose key is in exclude.
func (v *View[T]) Sample(rng *rand.Rand, n int, exclude ...identity.NodeID) []Entry[T] {
	return v.SampleInto(make([]Entry[T], 0, v.n), rng, n, exclude...)
}

// SampleInto is Sample appending into dst[:0], for gossip hot paths
// that draw one sample per shuffle: with a reusable dst of sufficient
// capacity the draw allocates nothing. The returned slice aliases dst
// (possibly grown), so callers that retain samples across events must
// copy. The exclude list is scanned linearly — it is one or two IDs in
// every protocol path.
func (v *View[T]) SampleInto(dst []Entry[T], rng *rand.Rand, n int, exclude ...identity.NodeID) []Entry[T] {
	candidates := dst[:0]
	for i := 0; i < v.n; i++ {
		skip := false
		for _, id := range exclude {
			if v.vals[i].Key() == id {
				skip = true
				break
			}
		}
		if !skip {
			candidates = append(candidates, v.entry(i))
		}
	}
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	if len(candidates) > n {
		candidates = candidates[:n]
	}
	return candidates
}

// Random returns one uniformly random entry (the getPeer() of the PSS
// API). ok is false for an empty view.
func (v *View[T]) Random(rng *rand.Rand) (Entry[T], bool) {
	if v.n == 0 {
		return Entry[T]{}, false
	}
	return v.entry(rng.Intn(v.n)), true
}

// PublicCount returns the number of P-node entries.
func (v *View[T]) PublicCount() int {
	n := 0
	for i := 0; i < v.n; i++ {
		if v.vals[i].IsPublic() {
			n++
		}
	}
	return n
}

// Publics returns the P-node entries.
func (v *View[T]) Publics() []Entry[T] {
	var out []Entry[T]
	for i := 0; i < v.n; i++ {
		if v.vals[i].IsPublic() {
			out = append(out, v.entry(i))
		}
	}
	return out
}

// Replace overwrites the view with entries, truncating to capacity.
func (v *View[T]) Replace(entries []Entry[T]) {
	if len(entries) > len(v.vals) {
		entries = entries[:len(v.vals)]
	}
	for i, e := range entries {
		v.vals[i] = e.Val
		v.ages[i] = e.Age
	}
	var zero T
	for i := len(entries); i < v.n; i++ {
		v.vals[i] = zero
	}
	v.n = len(entries)
}

// SelectOpts parameterizes the post-exchange truncation policy.
type SelectOpts struct {
	// Capacity is the view size c.
	Capacity int
	// Self is the local node's ID; entries pointing to it are dropped.
	Self identity.NodeID
	// MinPublic is Π: the minimum number of P-node entries to retain,
	// overriding the age-based policy if necessary (§III-B-1). Zero
	// disables the bias (the paper's unmodified baseline).
	MinPublic int
	// CapExcessPublic additionally discards the oldest P-nodes above
	// the Π threshold in favour of fresher coverage of N-nodes. The
	// paper describes this second bias for settings where Π exceeds the
	// network's P-node share; it is off by default and exercised by the
	// ablation benchmarks.
	CapExcessPublic bool
}

// Select implements the healer truncation: merge current and received
// entries, drop self-references, deduplicate keeping the freshest copy
// of each node, keep the Capacity entries with the lowest ages, then
// apply the Π bias. The input order breaks age ties (stable), so pass
// the local view first for the conventional behaviour.
func Select[T Item](merged []Entry[T], o SelectOpts) []Entry[T] {
	if o.Capacity <= 0 {
		panic("pss: Select with non-positive capacity")
	}
	// Deduplicate, keeping the freshest entry per node.
	best := make(map[identity.NodeID]int, len(merged))
	var uniq []Entry[T]
	for _, e := range merged {
		id := e.Val.Key()
		if id == o.Self {
			continue
		}
		if i, ok := best[id]; ok {
			if e.Age < uniq[i].Age {
				uniq[i] = e
			}
			continue
		}
		best[id] = len(uniq)
		uniq = append(uniq, e)
	}
	// Freshest first; stable keeps input precedence on ties.
	sortEntries(uniq)
	kept := uniq
	var excluded []Entry[T]
	if len(uniq) > o.Capacity {
		kept = uniq[:o.Capacity]
		excluded = uniq[o.Capacity:]
	}
	kept = append([]Entry[T](nil), kept...)
	if o.MinPublic <= 0 {
		return kept
	}

	// Bias 1: enforce at least Π P-nodes, swapping in the freshest
	// excluded P-nodes for the oldest kept N-nodes.
	pubs := countPublic(kept)
	for pubs < o.MinPublic {
		pi := -1
		for i, e := range excluded {
			if e.Val.IsPublic() {
				pi = i
				break // excluded is age-sorted: first P is freshest
			}
		}
		if pi < 0 {
			break // no P-nodes available at all
		}
		ni := -1
		for i := len(kept) - 1; i >= 0; i-- {
			if !kept[i].Val.IsPublic() {
				ni = i
				break // oldest N-node
			}
		}
		if ni < 0 {
			if len(kept) < o.Capacity {
				kept = append(kept, excluded[pi])
				excluded = append(excluded[:pi], excluded[pi+1:]...)
				pubs++
				continue
			}
			break
		}
		kept[ni], excluded[pi] = excluded[pi], kept[ni]
		sortEntries(kept)
		sortEntries(excluded)
		pubs++
	}

	// Bias 2 (optional): discard the oldest P-nodes above the quota in
	// favour of the freshest excluded N-nodes.
	if o.CapExcessPublic {
		for countPublic(kept) > o.MinPublic {
			ni := -1
			for i, e := range excluded {
				if !e.Val.IsPublic() {
					ni = i
					break
				}
			}
			if ni < 0 {
				break
			}
			pi := -1
			for i := len(kept) - 1; i >= 0; i-- {
				if kept[i].Val.IsPublic() {
					pi = i
					break
				}
			}
			if pi < 0 {
				break
			}
			kept[pi], excluded[ni] = excluded[ni], kept[pi]
			sortEntries(kept)
			sortEntries(excluded)
		}
	}
	return kept
}

// MergeCyclon applies a received shuffle buffer to the view using
// Cyclon-style swapping (Voulgaris et al., the protocol Nylon builds
// on): received entries first fill empty slots, then replace the
// entries that were sent in the same exchange, and are dropped
// otherwise — except that, following the healer leaning of the paper, a
// received entry may also replace a strictly older entry when no sent
// slot remains. Duplicates keep the fresher copy. Finally the Π bias of
// SelectOpts is enforced exactly as in Select, considering the P-nodes
// of both the previous view and the received buffer.
//
// sent must be the buffer this node shipped in the exchange (its own
// descriptor may be included; it is ignored since it never sits in the
// view). Swapping — rather than union-and-keep-freshest — is what keeps
// the overlay's clustering coefficient in the random-graph regime
// (Fig 5's baseline).
func MergeCyclon[T Item](view *View[T], sent, received []Entry[T], o SelectOpts) {
	var buf [mergeListSize]identity.NodeID
	ids := buf[:0]
	for _, s := range sent {
		ids = append(ids, s.Val.Key())
	}
	MergeCyclonIDs(view, ids, received, o, nil)
}

// mergeListSize is the stack room of one merge's working lists, sized
// for the shuffle buffers in use (ExchangeSize 5); longer buffers spill
// to the heap and merge the same.
const mergeListSize = 8

// MergeCyclonIDs is MergeCyclon for a caller that kept only the IDs of
// the buffer it shipped — all a merge reads of it — and whose received
// entries may live in memory it is about to reuse: keep, when non-nil,
// is applied to every value at the moment it enters the view and returns
// the copy the view may hold on to. (An entry the merge evicted and the Π
// bias pulls back in passes through keep again; keep must accept its own
// results.) Values that do not make it into the view are never passed to
// keep, so a merge allocates only for what it retains; its own working
// lists live on the stack.
func MergeCyclonIDs[T Item](view *View[T], sent []identity.NodeID, received []Entry[T], o SelectOpts, keep func(T) T) {
	if o.Capacity <= 0 {
		panic("pss: MergeCyclon with non-positive capacity")
	}
	if keep == nil {
		keep = func(v T) T { return v }
	}
	// Entries we may overwrite: the ones we sent that are still present.
	var repBuf [mergeListSize]identity.NodeID
	replaceable := repBuf[:0]
	for _, id := range sent {
		if id != o.Self && view.Contains(id) {
			replaceable = append(replaceable, id)
		}
	}
	var evBuf [mergeListSize]Entry[T]
	evicted := evBuf[:0]
	for _, r := range received {
		id := r.Val.Key()
		if id == o.Self {
			continue
		}
		if i := view.index(id); i >= 0 {
			if r.Age < view.ages[i] {
				view.vals[i] = keep(r.Val)
				view.ages[i] = r.Age
			}
			continue
		}
		if view.n < o.Capacity {
			view.append(keep(r.Val), r.Age)
			continue
		}
		if len(replaceable) > 0 {
			victim := replaceable[0]
			replaceable = replaceable[1:]
			if i := view.index(victim); i >= 0 {
				evicted = append(evicted, view.entry(i))
				view.vals[i] = keep(r.Val)
				view.ages[i] = r.Age
				continue
			}
		}
		// Healer fallback: replace the oldest entry if strictly older.
		oi := view.oldestIndex()
		if oi >= 0 && view.ages[oi] > r.Age {
			evicted = append(evicted, view.entry(oi))
			view.vals[oi] = keep(r.Val)
			view.ages[oi] = r.Age
		}
		// Otherwise the received entry is dropped.
	}
	if o.MinPublic <= 0 {
		return
	}
	// Π bias: candidates are P-nodes from the received buffer and the
	// entries this merge evicted, freshest first.
	var candBuf [2 * mergeListSize]Entry[T]
	candidates := candBuf[:0]
	for _, e := range received {
		if e.Val.IsPublic() && e.Val.Key() != o.Self && !view.Contains(e.Val.Key()) {
			candidates = append(candidates, e)
		}
	}
	for _, e := range evicted {
		if e.Val.IsPublic() && !view.Contains(e.Val.Key()) {
			candidates = append(candidates, e)
		}
	}
	sortEntries(candidates)
	for view.PublicCount() < o.MinPublic && len(candidates) > 0 {
		c := candidates[0]
		candidates = candidates[1:]
		if view.Contains(c.Val.Key()) {
			continue
		}
		c.Val = keep(c.Val)
		if view.n < o.Capacity {
			view.append(c.Val, c.Age)
			continue
		}
		// Replace the oldest N-node.
		ni, age := -1, -1
		for i := 0; i < view.n; i++ {
			if !view.vals[i].IsPublic() && int(view.ages[i]) > age {
				ni, age = i, int(view.ages[i])
			}
		}
		if ni < 0 {
			break
		}
		view.vals[ni] = c.Val
		view.ages[ni] = c.Age
	}
}

func (v *View[T]) index(id identity.NodeID) int {
	for i := 0; i < v.n; i++ {
		if v.vals[i].Key() == id {
			return i
		}
	}
	return -1
}

// oldestIndex returns the slot with the highest age (first among ties,
// matching the historical forward scan with strict >). -1 when empty.
func (v *View[T]) oldestIndex() int {
	if v.n == 0 {
		return -1
	}
	best := 0
	for i := 1; i < v.n; i++ {
		if v.ages[i] > v.ages[best] {
			best = i
		}
	}
	return best
}

func countPublic[T Item](entries []Entry[T]) int {
	n := 0
	for _, e := range entries {
		if e.Val.IsPublic() {
			n++
		}
	}
	return n
}

// sortEntries orders entries freshest first; stable, so input order
// breaks age ties. The generic sort takes no reflection swapper and lets
// a stack-resident list stay there.
func sortEntries[T Item](entries []Entry[T]) {
	slices.SortStableFunc(entries, func(a, b Entry[T]) int { return cmp.Compare(a.Age, b.Age) })
}
