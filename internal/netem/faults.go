package netem

import (
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// FaultModel composes adversarial-network pathologies on top of a
// LatencyModel: per-datagram duplication, a reordering window (extra
// jitter applied to a random subset of datagrams), Gilbert-Elliott
// burst loss, and one-way partitions between IP sets. The paper's
// evaluation assumes only independent loss; real UDP paths through
// middleboxes also duplicate, reorder and lose in bursts, and the
// protocol claims must survive that (cf. the NAT-constrained overlays
// of Wolinsky et al.).
//
// All randomness is drawn from the simulation's seeded RNG at Send
// time, so runs stay fully deterministic. A nil FaultModel (the
// default) is strictly zero-behavior: Network.Send consumes exactly the
// same random draws and schedules exactly the same events as before the
// fault layer existed.
type FaultModel struct {
	// DupProb is the per-datagram probability that a second, identical
	// copy is injected with an independently drawn delay.
	DupProb float64
	// ReorderProb is the per-copy probability of adding extra delay
	// drawn uniformly from [0, ReorderJitter), pushing the datagram
	// behind later traffic on the same link.
	ReorderProb float64
	// ReorderJitter is the width of the extra-delay window (default
	// 100ms when ReorderProb > 0).
	ReorderJitter time.Duration
	// Burst, when non-nil, runs a per-directed-link Gilbert-Elliott
	// chain in front of the latency model's independent loss.
	Burst *GilbertElliott
	// Partitions lists one-way cuts: a datagram whose source is in
	// From and destination in To of any partition is dropped.
	Partitions []Partition
}

// String renders the active fault knobs compactly ("" for nil), the
// form the bench log embeds so timing records say what network they ran
// on.
func (f *FaultModel) String() string {
	if f == nil {
		return ""
	}
	var parts []string
	if f.DupProb > 0 {
		parts = append(parts, fmt.Sprintf("dup=%g", f.DupProb))
	}
	if f.ReorderProb > 0 {
		parts = append(parts, fmt.Sprintf("reorder=%g/%v", f.ReorderProb, f.reorderJitter()))
	}
	if f.Burst != nil {
		parts = append(parts, fmt.Sprintf("burst=%g/%g/%g", f.Burst.PGoodBad, f.Burst.PBadGood, f.Burst.LossBad))
	}
	if len(f.Partitions) > 0 {
		parts = append(parts, fmt.Sprintf("partitions=%d", len(f.Partitions)))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

// reorderJitter returns the effective window width.
func (f *FaultModel) reorderJitter() time.Duration {
	if f.ReorderJitter > 0 {
		return f.ReorderJitter
	}
	return 100 * time.Millisecond
}

// GilbertElliott parameterizes the classic two-state burst-loss chain:
// each directed link is either Good or Bad, transitions are evaluated
// once per datagram, and the drop probability depends on the state.
// Steady-state time in Bad is PGoodBad/(PGoodBad+PBadGood); mean burst
// length is 1/PBadGood datagrams.
type GilbertElliott struct {
	// PGoodBad is P(Good→Bad) per datagram.
	PGoodBad float64
	// PBadGood is P(Bad→Good) per datagram.
	PBadGood float64
	// LossGood is the drop probability in the Good state (usually 0).
	LossGood float64
	// LossBad is the drop probability in the Bad state (default 1).
	LossBad float64
}

func (g *GilbertElliott) lossBad() float64 {
	if g.LossBad > 0 {
		return g.LossBad
	}
	return 1
}

// Partition is a one-way cut between two IP sets. Traffic from From to
// To is dropped; the reverse direction is untouched, modeling the
// asymmetric reachability real middleboxes produce.
type Partition struct {
	From map[IP]bool
	To   map[IP]bool
}

// NewPartition builds a one-way partition from explicit IP lists.
func NewPartition(from, to []IP) Partition {
	p := Partition{From: make(map[IP]bool, len(from)), To: make(map[IP]bool, len(to))}
	for _, ip := range from {
		p.From[ip] = true
	}
	for _, ip := range to {
		p.To[ip] = true
	}
	return p
}

// blocks reports whether the partition cuts src→dst.
func (p Partition) blocks(src, dst IP) bool { return p.From[src] && p.To[dst] }

// FaultStats counts fault injections since SetFaults.
type FaultStats struct {
	Duplicated   uint64 // extra copies injected
	Reordered    uint64 // copies given extra jitter
	BurstDropped uint64 // drops by the Gilbert-Elliott chain
	Partitioned  uint64 // drops by one-way partitions
}

// SetFaults installs (or, with nil, removes) a fault-injection model.
// Burst-chain state and fault counters are reset. Must be called from
// simulation-event context or before the simulation runs.
func (n *Network) SetFaults(fm *FaultModel) {
	n.faults = fm
	n.fstats = FaultStats{}
	if fm != nil && fm.Burst != nil {
		n.burst = make(map[[2]IP]bool)
	} else {
		n.burst = nil
	}
}

// Faults returns the installed fault model, or nil.
func (n *Network) Faults() *FaultModel { return n.faults }

// FaultStats reports fault-injection totals since SetFaults.
func (n *Network) FaultStats() FaultStats { return n.fstats }

// faultDrop applies partitions and the burst-loss chain; it reports
// whether the datagram dies before the latency model ever sees it.
func (n *Network) faultDrop(rng *rand.Rand, src, dst IP) bool {
	f := n.faults
	for _, p := range f.Partitions {
		if p.blocks(src, dst) {
			n.fstats.Partitioned++
			return true
		}
	}
	if ge := f.Burst; ge != nil {
		key := [2]IP{src, dst}
		bad := n.burst[key]
		if bad {
			if rng.Float64() < ge.PBadGood {
				bad = false
			}
		} else {
			if rng.Float64() < ge.PGoodBad {
				bad = true
			}
		}
		// Only Bad links are stored: a missing key reads as Good, so the
		// map holds the links in a burst right now, not every pair ever used.
		if bad {
			n.burst[key] = true
		} else {
			delete(n.burst, key)
		}
		loss := ge.LossGood
		if bad {
			loss = ge.lossBad()
		}
		if loss > 0 && rng.Float64() < loss {
			n.fstats.BurstDropped++
			return true
		}
	}
	return false
}
