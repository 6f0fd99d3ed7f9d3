package nylon_test

import (
	"reflect"
	"testing"
	"time"

	"whisper/internal/crypt"
	"whisper/internal/identity"
	"whisper/internal/netem"
	"whisper/internal/nylon"
	"whisper/internal/pss"
	"whisper/internal/sim"
)

// buildWorld creates a converged test network.
func buildWorld(t testing.TB, opts sim.Options) *sim.World {
	t.Helper()
	if opts.KeyPool == nil {
		opts.KeyPool = identity.TestPool(32)
	}
	w, err := sim.NewWorld(opts)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestScratchNeverEscapes runs a small NATted world twice at the same
// seed, once with every scratch record overwritten as soon as its
// handler returns. Nothing that outlives a handler may alias scratch, so
// everything the nodes retained or handed out — view entries with their
// routes, learned routes, the events OnExchange saw (kept by the test as
// delivered, not copied) — must come out the same as in the undisturbed
// twin. A route left pointing into a record shows up here as 0xDEADBEEF
// in a view, and within a cycle as a diverged run.
func TestScratchNeverEscapes(t *testing.T) {
	type state struct {
		Views     map[identity.NodeID][]pss.Entry[nylon.Descriptor]
		Routes    map[identity.NodeID]map[identity.NodeID][]identity.NodeID
		Exchanges map[identity.NodeID][]nylon.ExchangeEvent
		Completed uint64
		Relayed   uint64
	}
	run := func(scribble bool) state {
		nylon.ScribbleScratchOnRelease(scribble)
		defer nylon.ScribbleScratchOnRelease(false)
		w := buildWorld(t, sim.Options{Seed: 9, N: 60, NATRatio: 0.7, Nylon: nylon.Config{MinPublic: 3}})
		st := state{
			Views:     make(map[identity.NodeID][]pss.Entry[nylon.Descriptor]),
			Routes:    make(map[identity.NodeID]map[identity.NodeID][]identity.NodeID),
			Exchanges: make(map[identity.NodeID][]nylon.ExchangeEvent),
		}
		for _, n := range w.Live() {
			id := n.ID()
			n.Nylon.OnExchange = func(ev nylon.ExchangeEvent) { st.Exchanges[id] = append(st.Exchanges[id], ev) }
		}
		w.StartAll()
		w.Sim.RunUntil(4 * time.Minute) // ≈ 24 cycles
		for _, n := range w.Live() {
			st.Views[n.ID()] = n.Nylon.View()
			st.Routes[n.ID()] = n.Nylon.LearnedRoutes()
			stats := n.Nylon.Stats()
			st.Completed += stats.ShufflesCompleted
			st.Relayed += stats.ShufflesViaRelays
		}
		return st
	}
	want, got := run(false), run(true)
	if want.Completed < 1000 || want.Relayed < 100 {
		t.Fatalf("only %d shuffles completed, %d relayed: the world tests nothing", want.Completed, want.Relayed)
	}
	routed := 0
	for _, view := range want.Views {
		for _, e := range view {
			if len(e.Val.Route) > 0 {
				routed++
			}
		}
	}
	if routed == 0 {
		t.Fatal("no view entry carries a route: the world tests nothing")
	}
	if !reflect.DeepEqual(got, want) {
		for id, view := range want.Views {
			if !reflect.DeepEqual(got.Views[id], view) {
				t.Errorf("node %v view:\n  scribbled %v\n  twin      %v", id, got.Views[id], view)
				break
			}
		}
		t.Fatalf("scribbling over released scratch changed the run (completed %d vs %d, relayed %d vs %d)",
			got.Completed, want.Completed, got.Relayed, want.Relayed)
	}
}

func TestOverlayConvergesWithNATs(t *testing.T) {
	w := buildWorld(t, sim.Options{Seed: 1, N: 200, NATRatio: 0.7})
	w.StartAll()
	w.Sim.RunUntil(5 * time.Minute)

	g := w.GraphStream()
	if !g.WeaklyConnected() {
		t.Fatal("overlay disconnected after 30 cycles")
	}
	// Views should be full and include N-nodes (NAT resilience: NATted
	// nodes are reachable and thus gossiped).
	nattedSeen := 0
	for _, n := range w.Live() {
		view := n.Nylon.View()
		if len(view) < 8 {
			t.Fatalf("node %v view has only %d entries", n.ID(), len(view))
		}
		for _, e := range view {
			if !e.Val.Public {
				nattedSeen++
			}
		}
	}
	if nattedSeen == 0 {
		t.Fatal("no N-node ever appears in a view: NAT traversal broken")
	}
	// With 70% N-nodes, they should be well represented, not marginal.
	total := 0
	for _, n := range w.Live() {
		total += len(n.Nylon.View())
	}
	if frac := float64(nattedSeen) / float64(total); frac < 0.4 {
		t.Fatalf("N-nodes are only %.0f%% of view entries, want ≥ 40%%", frac*100)
	}
}

func TestViewEntriesAreRoutable(t *testing.T) {
	// The Nylon invariant: every view entry can be contacted. Exercise
	// it by sending an app payload to every entry of a sample of nodes.
	w := buildWorld(t, sim.Options{Seed: 2, N: 150, NATRatio: 0.7})
	w.StartAll()
	w.Sim.RunUntil(5 * time.Minute)

	received := make(map[identity.NodeID]int)
	for _, n := range w.Live() {
		id := n.ID()
		n.Nylon.AppHandler = func(_ netem.Endpoint, payload []byte) {
			if string(payload) == "ping" {
				received[id]++
			}
		}
	}
	sent := 0
	for _, n := range w.Live()[:50] {
		for _, e := range n.Nylon.View() {
			frame := append(make([]byte, nylon.AppHeadroom), "ping"...)
			if err := n.Nylon.SendApp(e.Val, frame); err == nil {
				sent++
			}
		}
	}
	w.Sim.RunFor(10 * time.Second)
	got := 0
	for _, c := range received {
		got += c
	}
	if sent == 0 {
		t.Fatal("no sendable view entries at all")
	}
	if frac := float64(got) / float64(sent); frac < 0.9 {
		t.Fatalf("only %.0f%% of view entries were actually reachable (%d/%d)", frac*100, got, sent)
	}
}

func TestBiasedViewsKeepPublicQuota(t *testing.T) {
	w := buildWorld(t, sim.Options{Seed: 3, N: 200, NATRatio: 0.7,
		Nylon: nylon.Config{MinPublic: 3}})
	w.StartAll()
	w.Sim.RunUntil(5 * time.Minute)

	below := 0
	for _, n := range w.Live() {
		pubs := 0
		for _, e := range n.Nylon.View() {
			if e.Val.Public {
				pubs++
			}
		}
		if pubs < 3 {
			below++
		}
	}
	if below > len(w.Live())/20 {
		t.Fatalf("%d/%d views below Π=3", below, len(w.Live()))
	}
}

func TestKeySamplingPopulatesStores(t *testing.T) {
	w := buildWorld(t, sim.Options{Seed: 4, N: 100, NATRatio: 0.7,
		Nylon: nylon.Config{KeySampling: true, KeyBlobSize: 256}})
	w.StartAll()
	w.Sim.RunUntil(4 * time.Minute)

	for _, n := range w.Live() {
		if n.Nylon.Keys().Len() < 3 {
			t.Fatalf("node %v knows only %d keys after 24 cycles", n.ID(), n.Nylon.Keys().Len())
		}
	}
	// Keys must be correct: pick a node, check a sampled key matches the
	// actual identity of its owner.
	n := w.Live()[0]
	checked := 0
	for _, e := range n.Nylon.View() {
		owner := w.Get(e.Val.ID)
		if owner == nil {
			continue
		}
		if k := n.Nylon.Keys().Get(e.Val.ID); k != nil {
			if crypt.KeyFingerprint(k) != crypt.KeyFingerprint(owner.Nylon.Identity().Public()) {
				t.Fatalf("sampled key for %v does not match its identity", e.Val.ID)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no view entry had a sampled key to verify")
	}
}

func TestRelaysAndPunchingOccur(t *testing.T) {
	w := buildWorld(t, sim.Options{Seed: 5, N: 200, NATRatio: 0.7})
	w.StartAll()
	w.Sim.RunUntil(5 * time.Minute)

	var relays, punches, timeouts, completed uint64
	for _, n := range w.Live() {
		st := n.Nylon.Stats()
		relays += st.RelaysForwarded
		punches += st.PunchSuccesses
		completed += st.ShufflesCompleted
		timeouts += st.ShufflesTimedOut
	}
	if relays == 0 {
		t.Fatal("no message was ever relayed in a 70%-NAT network")
	}
	if punches == 0 {
		t.Fatal("hole punching never succeeded")
	}
	if completed == 0 {
		t.Fatal("no shuffle ever completed")
	}
	// In a stable network, most initiated shuffles should complete.
	if timeouts*5 > completed {
		t.Fatalf("too many shuffle timeouts: %d timeouts vs %d completed", timeouts, completed)
	}
}

func TestPunchingDisabledStillConverges(t *testing.T) {
	w := buildWorld(t, sim.Options{Seed: 6, N: 120, NATRatio: 0.7,
		Nylon: nylon.Config{DisablePunch: true}})
	w.StartAll()
	w.Sim.RunUntil(5 * time.Minute)
	if !w.GraphStream().WeaklyConnected() {
		t.Fatal("relay-only network disconnected")
	}
	var punches uint64
	for _, n := range w.Live() {
		punches += n.Nylon.Stats().PunchSuccesses
	}
	if punches != 0 {
		t.Fatalf("punching happened despite being disabled: %d", punches)
	}
}

func TestChurnHealing(t *testing.T) {
	w := buildWorld(t, sim.Options{Seed: 7, N: 200, NATRatio: 0.7})
	w.StartAll()
	w.Sim.RunUntil(4 * time.Minute)

	killed := w.KillRandom(40)
	dead := make(map[identity.NodeID]bool, len(killed))
	for _, n := range killed {
		dead[n.ID()] = true
	}
	// Replacement arrivals, as in the churn model (100% replacement).
	for i := 0; i < 40; i++ {
		w.Spawn()
	}
	w.StartAll()
	w.Sim.RunFor(6 * time.Minute)

	staleRefs, totalRefs := 0, 0
	for _, n := range w.Live() {
		for _, id := range n.Nylon.ViewIDs() {
			totalRefs++
			if dead[id] {
				staleRefs++
			}
		}
	}
	if frac := float64(staleRefs) / float64(totalRefs); frac > 0.02 {
		t.Fatalf("%.1f%% of view entries still point to dead nodes after 36 cycles", frac*100)
	}
	if !w.GraphStream().WeaklyConnected() {
		t.Fatal("overlay disconnected after churn")
	}
	// New arrivals are integrated: they appear in other nodes' views.
	newSeen := 0
	for _, n := range w.Live() {
		for _, id := range n.Nylon.ViewIDs() {
			if uint64(id) > 200 {
				newSeen++
			}
		}
	}
	if newSeen == 0 {
		t.Fatal("no new arrival ever entered a view")
	}
}

func TestStoppedNodeGoesSilent(t *testing.T) {
	w := buildWorld(t, sim.Options{Seed: 8, N: 50, NATRatio: 0.5})
	w.StartAll()
	w.Sim.RunUntil(time.Minute)
	victim := w.Live()[0]
	before := victim.Nylon.Meter().Snapshot()
	w.Kill(victim)
	w.Sim.RunFor(2 * time.Minute)
	after := victim.Nylon.Meter().Snapshot()
	if after.UpBytes != before.UpBytes {
		t.Fatal("stopped node kept sending")
	}
	if after.DownBytes != before.DownBytes {
		t.Fatal("stopped node kept receiving")
	}
	if !victim.Nylon.Stopped() {
		t.Fatal("Stopped() = false")
	}
}

func TestGetPeerIsFromView(t *testing.T) {
	w := buildWorld(t, sim.Options{Seed: 9, N: 60, NATRatio: 0.7})
	w.StartAll()
	w.Sim.RunUntil(2 * time.Minute)
	n := w.Live()[0]
	ids := map[identity.NodeID]bool{}
	for _, id := range n.Nylon.ViewIDs() {
		ids[id] = true
	}
	for i := 0; i < 10; i++ {
		d, ok := n.Nylon.GetPeer()
		if !ok {
			t.Fatal("GetPeer failed on a converged node")
		}
		if !ids[d.ID] {
			// The view may rotate between calls; re-check liveness only.
			if w.Get(d.ID) == nil {
				t.Fatalf("GetPeer returned unknown dead node %v", d.ID)
			}
		}
	}
}

func TestEchoDiscovery(t *testing.T) {
	w := buildWorld(t, sim.Options{Seed: 10, N: 60, NATRatio: 0.7})
	w.StartAll()
	w.Sim.RunUntil(2 * time.Minute)
	withExt := 0
	natted := w.LiveNatted()
	for _, n := range natted {
		if !n.Nylon.SelfDescriptor().Contact.IsZero() {
			withExt++
		}
	}
	if withExt*2 < len(natted) {
		t.Fatalf("only %d/%d N-nodes discovered their external endpoint", withExt, len(natted))
	}
}

func TestInDegreeBalance(t *testing.T) {
	w := buildWorld(t, sim.Options{Seed: 11, N: 200, NATRatio: 0.7})
	w.StartAll()
	w.Sim.RunUntil(5 * time.Minute)
	in := w.GraphStream().InDegrees()
	max, zero := 0, 0
	for _, d := range in {
		if d > max {
			max = d
		}
		if d == 0 {
			zero++
		}
	}
	if max > 60 {
		t.Fatalf("max in-degree %d: overlay is hub-dominated", max)
	}
	if zero > 10 {
		t.Fatalf("%d nodes have in-degree 0: poorly integrated", zero)
	}
}

func BenchmarkNetwork200NodesOneCycle(b *testing.B) {
	w := buildWorld(b, sim.Options{Seed: 12, N: 200, NATRatio: 0.7})
	w.StartAll()
	w.Sim.RunUntil(2 * time.Minute) // warm up
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Sim.RunFor(10 * time.Second)
	}
}

func TestConvergesOnLossyWAN(t *testing.T) {
	// The PlanetLab model adds heavy-tailed latency, 2% datagram loss
	// and slow nodes; the PSS must still converge (§V deploys there).
	w := buildWorld(t, sim.Options{Seed: 13, N: 150, NATRatio: 0.7,
		Model: netem.DefaultPlanetLab()})
	w.StartAll()
	w.Sim.RunUntil(8 * time.Minute)

	g := w.GraphStream()
	if !g.WeaklyConnected() {
		t.Fatal("overlay disconnected under WAN loss")
	}
	full := 0
	var timeouts, completed uint64
	for _, n := range w.Live() {
		if len(n.Nylon.View()) >= 8 {
			full++
		}
		timeouts += n.Nylon.Stats().ShufflesTimedOut
		completed += n.Nylon.Stats().ShufflesCompleted
	}
	if full < len(w.Live())*9/10 {
		t.Fatalf("only %d/%d views full under loss", full, len(w.Live()))
	}
	if timeouts == 0 {
		t.Fatal("no shuffle ever timed out despite 2% loss — loss path untested")
	}
	if completed < timeouts*3 {
		t.Fatalf("loss overwhelmed gossip: %d completed vs %d timeouts", completed, timeouts)
	}
}
