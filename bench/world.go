package main

import (
	"fmt"
	"runtime"
	"time"

	"whisper/internal/churn"
	"whisper/internal/ppss"
	"whisper/internal/sim"
	"whisper/internal/wcl"
)

// groupName is the one private group of the messaging workloads.
const groupName = "bench"

// world is a set-up simulated network, ready for its first timed op.
type world struct {
	wl  *workload
	w   *sim.World
	tr  *tracer // nil on plain runs
	err []string

	heapBefore uint64 // settled HeapAlloc before sim.NewWorld
	setup      time.Duration
	gossip     *gossip   // PSS-only worlds
	members    []*member // leader first; the first `clients` entries send
	joinMS     []float64 // virtual time of each successful join handshake
}

// member is one node of the private group.
type member struct {
	node *sim.Node
	inst *ppss.Instance
}

// settledHeap returns HeapAlloc after two collections: the first frees
// ordinary garbage, the second what finalizers and sync.Pool only
// queued, so a heap delta measures retained state.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func (b *world) problem(format string, args ...any) {
	b.err = append(b.err, fmt.Sprintf(format, args...))
}

// setUp builds the world of wl up to the first timed op: sim.NewWorld,
// StartAll, the underlay warm-up, and (messaging workloads) group
// formation and the churn script. The seed reaches the program only as
// sim.Options.Seed.
func setUp(wl *workload, seed int64, tr *tracer) (*world, error) {
	b := &world{wl: wl, tr: tr}
	b.heapBefore = settledHeap()
	start := time.Now()

	opts := sim.Options{
		Seed:     seed,
		N:        wl.N,
		Shards:   wl.Shards,
		NATRatio: 0.7,
		Model:    wl.model(),
		KeyPool:  wl.Pool,
	}
	if wl.Faults {
		opts.Faults = faultModel()
	}
	if !wl.Gossip {
		opts.WCL = &wcl.Config{MinPublic: 3}
		opts.PPSS = &ppss.Config{MinHelpers: 3}
	}
	sp := tr.begin("sim.new_world", 0)
	w, err := sim.NewWorld(opts)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("sim.NewWorld: %w", err)
	}
	b.w = w
	tr.attach(w)
	if wl.Gossip {
		b.gossip = newGossip(b)
	}

	sp = tr.begin("sim.warmup", 0)
	w.StartAll()
	w.RunUntil(wl.Warmup)
	tr.end(sp)

	if !wl.Gossip {
		sp = tr.begin("ppss.group_form", 0)
		b.formGroup()
		tr.end(sp)
		if wl.Churn {
			b.startChurn()
		}
	}
	b.checkConverged()
	b.setup = time.Since(start)
	return b, nil
}

// formGroup creates the private group on the first public node and
// admits the next groupSize-1 nodes in creation order (the NAT dealing
// interleaves types, so the members mix P- and N-nodes like the
// population). Joins run one after the other, a virtual second apart,
// each retried up to three times as a user re-requesting an invitation
// would.
func (b *world) formGroup() {
	w := b.w
	pubs := w.LivePublics()
	if len(pubs) == 0 {
		b.problem("no public node to lead the group")
		return
	}
	leader := pubs[0]
	inst, err := leader.PPSS.CreateGroup(groupName)
	if err != nil {
		b.problem("create group: %v", err)
		return
	}
	b.members = append(b.members, &member{node: leader, inst: inst})
	invited := 1
	for _, n := range w.Live() {
		if invited == groupSize {
			break
		}
		if n == leader {
			continue
		}
		invited++
		b.join(inst, n, 1)
		w.RunFor(time.Second)
	}
	w.RunFor(b.wl.Settle)
}

func (b *world) join(leader *ppss.Instance, n *sim.Node, attempt int) {
	accr, entry, err := leader.Invite(n.ID())
	if err != nil {
		b.problem("invite %v: %v", n.ID(), err)
		return
	}
	t0 := b.w.Now()
	sp := b.tr.beginAsync("ppss.join", 0)
	n.PPSS.Join(groupName, accr, entry, func(in *ppss.Instance, err error) {
		b.tr.end(sp)
		if err != nil {
			if attempt < 3 && n.PPSS.Instance(leader.Group()) == nil {
				b.join(leader, n, attempt+1)
			}
			return
		}
		b.joinMS = append(b.joinMS, float64(b.w.Now()-t0)/float64(time.Millisecond))
		b.members = append(b.members, &member{node: n, inst: in})
	})
}

// startChurn replaces 1 % of the non-member population every virtual
// minute from now on (churn.ConstChurn with the default 100 %
// replacement). Members are spared so a failed op is a failed route,
// never a dead destination.
func (b *world) startChurn() {
	w := b.w
	isMember := make(map[*sim.Node]bool, len(b.members))
	for _, m := range b.members {
		isMember[m.node] = true
	}
	others := func() []*sim.Node {
		var out []*sim.Node
		for _, n := range w.Live() {
			if !isMember[n] {
				out = append(out, n)
			}
		}
		return out
	}
	plan := churn.Plan{Steps: []churn.Step{churn.ConstChurn{
		From: w.Now(), To: 1 << 62, RatePct: 1, Interval: time.Minute,
	}}}
	plan.RunOn(w, churn.Actions{
		Population: func() int { return len(others()) },
		Leave: func(count int) {
			live := others()
			w.Rand().Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
			for _, n := range live[:min(count, len(live))] {
				w.Kill(n)
			}
		},
		Join: func(count int) {
			for i := 0; i < count; i++ {
				w.Spawn().Nylon.Start()
			}
		},
	})
}

// checkConverged is the set-up half of the correctness gate: the
// overlay gossips, the group has every configured member, and every
// member can name a peer. A node's view is legitimately empty for a
// moment when its last entry is out on a shuffle (Cyclon removes the
// partner before the exchange, and under faults the answer can be
// lost), so the overlay check allows 2 % of the nodes to be caught so.
func (b *world) checkConverged() {
	empty := 0
	for _, n := range b.w.Live() {
		if len(n.Nylon.ViewIDs()) == 0 {
			empty++
		}
	}
	if empty*50 > b.w.LiveCount() {
		b.problem("world did not converge: %d of %d nodes have an empty view after warm-up", empty, b.w.LiveCount())
	}
	if b.wl.Gossip {
		return
	}
	if len(b.members) != groupSize {
		b.problem("group has %d joined members, want %d", len(b.members), groupSize)
	}
	for _, m := range b.members {
		if len(m.inst.ViewIDs()) == 0 {
			b.problem("member %v has an empty private view after set-up", m.node.ID())
		}
	}
}
