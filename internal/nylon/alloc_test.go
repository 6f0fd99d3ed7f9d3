package nylon

import (
	"runtime"
	"testing"
	"time"

	"whisper/internal/identity"
	"whisper/internal/nat"
	"whisper/internal/netem"
	"whisper/internal/pss"
	"whisper/internal/simnet"
	simtr "whisper/internal/transport/simnet"
	"whisper/internal/wire/wiretest"
)

// exchangeFixture is two warmed nodes and a relay over transport/simnet:
// a (public) initiates, b answers — a public node for the direct
// exchange, a node behind a port-restricted NAT reached through the
// public relay r for the relayed one.
type exchangeFixture struct {
	s          *simnet.Sim
	a, b, r    *Node
	viewA      []pss.Entry[Descriptor] // b is the oldest entry
	viewB      []pss.Entry[Descriptor]
	freshViewB []pss.Entry[Descriptor] // disjoint from viewA, fresher, all with routes
}

func newExchangeFixture(t *testing.T, relayed bool) *exchangeFixture {
	t.Helper()
	f := &exchangeFixture{s: simnet.New(7)}
	nw := netem.New(f.s, netem.Fixed{D: 10 * time.Millisecond})
	rt := simtr.New(f.s, nw)
	keys := identity.TestKeys(3)
	cfg := Config{DisablePunch: true, MinPublic: 3}
	node := func(id identity.NodeID, ip netem.IP) *Node {
		return NewNode(rt, &identity.Identity{ID: id, Key: keys[id-1]}, nat.None, netem.Endpoint{IP: ip, Port: 1}, nil, cfg)
	}
	f.a, f.r = node(1, 11), node(3, 13)
	bDesc := Descriptor{ID: 2, Public: true, Contact: netem.Endpoint{IP: 12, Port: 1}}
	if !relayed {
		f.b = node(2, 12)
	} else {
		dev := nat.NewDevice(nw, nat.PortRestrictedCone, 12, 0)
		inside := netem.Endpoint{IP: netem.PrivateBase + 2, Port: 1}
		f.b = NewNode(rt, &identity.Identity{ID: 2, Key: keys[1]}, nat.PortRestrictedCone, inside, dev, cfg)
		// b opens its NAT towards the relay; everybody then knows the
		// contacts a relayed exchange needs (a→r→b and back).
		f.b.port.Send(f.r.Addr(), []byte{msgEchoReq})
		f.s.Run()
		ext, ok := dev.ExternalEndpoint(inside)
		if !ok {
			t.Fatal("b has no NAT mapping towards the relay")
		}
		f.a.learnContact(3, f.r.Addr(), true)
		f.r.learnContact(1, f.a.Addr(), true)
		f.r.learnContact(2, ext, false)
		f.b.learnContact(3, f.r.Addr(), true)
		bDesc = Descriptor{ID: 2, Contact: ext, Route: []identity.NodeID{3}}
	}

	// Full views of nodes that do not exist (nothing is ever sent to
	// them): a third public, the rest N-nodes with two-hop routes.
	entry := func(id identity.NodeID, age uint16) pss.Entry[Descriptor] {
		d := Descriptor{ID: id, Public: id%3 == 0, Contact: netem.Endpoint{IP: netem.IP(100 + id), Port: 1}}
		if !d.Public {
			d.Route = []identity.NodeID{id + 1000, id + 2000}
		}
		return pss.Entry[Descriptor]{Val: d, Age: age}
	}
	f.viewA = append(f.viewA, pss.Entry[Descriptor]{Val: bDesc, Age: 50})
	for id := identity.NodeID(20); id < 29; id++ {
		f.viewA = append(f.viewA, entry(id, 5))
		f.viewB = append(f.viewB, entry(id, 5))
	}
	f.viewB = append(f.viewB, entry(29, 5))
	for id := identity.NodeID(40); id < 50; id++ {
		e := entry(id, 1)
		e.Val.Public = false
		e.Val.Route = []identity.NodeID{id + 1000}
		f.freshViewB = append(f.freshViewB, e)
	}
	return f
}

// exchange resets both views and runs one full request/response
// exchange initiated by a, returning its allocation count and how many
// routes it put into the two views (each of those is one allocation the
// exchange keeps).
func (f *exchangeFixture) exchange(t *testing.T, viewB []pss.Entry[Descriptor]) (allocs uint64, keptRoutes int) {
	f.a.view.Replace(f.viewA)
	f.b.view.Replace(viewB)
	old := make(map[*identity.NodeID]bool)
	for _, n := range []*Node{f.a, f.b} {
		for _, e := range n.View() {
			if len(e.Val.Route) > 0 {
				old[&e.Val.Route[0]] = true
			}
		}
	}
	served, completed := f.b.Stats().ShufflesServed, f.a.Stats().ShufflesCompleted

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f.a.cycle()
	f.s.RunFor(time.Second)
	runtime.ReadMemStats(&m1)

	if f.b.Stats().ShufflesServed != served+1 || f.a.Stats().ShufflesCompleted != completed+1 {
		t.Fatalf("the exchange did not complete: served %d→%d, completed %d→%d",
			served, f.b.Stats().ShufflesServed, completed, f.a.Stats().ShufflesCompleted)
	}
	for _, n := range []*Node{f.a, f.b} {
		for _, e := range n.View() {
			if len(e.Val.Route) > 0 && !old[&e.Val.Route[0]] {
				keptRoutes++
			}
		}
	}
	return m1.Mallocs - m0.Mallocs, keptRoutes
}

// TestShuffleAllocBudget pins what one PSS exchange allocates to what it
// keeps. Fixed part of a direct exchange: the request datagram, the
// pending shuffle (its slot and its sent IDs), the timeout timer (handle
// and callback), the response datagram — six. A relayed exchange adds
// the relay envelope around the request and the one around the response.
// On top of that, one allocation per route that entered a view and
// nothing else: no decoded message, no shipped or adjusted buffer, no
// sample, no merge list, no engine event, no delivery closure. (Before the
// scratch records the same exchanges cost 65 to 69 allocations direct and
// 85 to 90 relayed, for 4 to 8 routes kept.)
func TestShuffleAllocBudget(t *testing.T) {
	if wiretest.RaceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	for _, tc := range []struct {
		name    string
		relayed bool
		fixed   uint64
	}{
		{"direct", false, 6},
		{"relayed", true, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newExchangeFixture(t, tc.relayed)
			if got := f.a.Stats().ShufflesViaRelays; got != 0 {
				t.Fatalf("fixture initiated %d shuffles", got)
			}
			for _, views := range []struct {
				name     string
				viewB    []pss.Entry[Descriptor]
				wantKept bool
			}{
				{"same entries both sides", f.viewB, false},
				{"fresh entries with routes", f.freshViewB, true},
			} {
				for i := 0; i < 3; i++ { // warm: pools, free lists, tables
					f.exchange(t, views.viewB)
				}
				allocs, kept := f.exchange(t, views.viewB)
				if budget := tc.fixed + uint64(kept); allocs > budget {
					t.Errorf("%s: %d allocations, budget %d (%d fixed + %d routes that entered a view)",
						views.name, allocs, budget, tc.fixed, kept)
				}
				if views.wantKept && kept == 0 {
					t.Errorf("%s: no route entered a view, the case tests nothing", views.name)
				}
			}
			if got := f.a.Stats().ShufflesViaRelays > 0; got != tc.relayed {
				t.Fatalf("shuffles went via relays: %v, want %v", got, tc.relayed)
			}
		})
	}
}
