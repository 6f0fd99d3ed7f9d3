package netem_test

import (
	"testing"
	"time"

	"whisper/internal/netem"
	"whisper/internal/simnet"
	simtr "whisper/internal/transport/simnet"
	"whisper/internal/wire/wiretest"
)

// TestDeliveryZeroAllocs: in steady state a datagram travels from Send
// to its handler without the engine allocating anything — the event and
// the delivery record are recycled, there is no closure and no timer
// handle — on one network and across the shards of a Fabric alike. The
// payload is the sender's business (here one buffer bounces for ever).
func TestDeliveryZeroAllocs(t *testing.T) {
	if wiretest.RaceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	a, b := netem.Endpoint{IP: 1, Port: 1}, netem.Endpoint{IP: 2, Port: 1}
	model := netem.Fixed{D: time.Millisecond}
	// bounce makes the handler at self answer every datagram with its own
	// payload, sent back through nw.
	delivered := 0
	bounce := func(nw *netem.Network, self netem.Endpoint) netem.Handler {
		return netem.HandlerFunc(func(dg netem.Datagram) {
			delivered++
			nw.Send(netem.Datagram{Src: self, Dst: dg.Src, Payload: dg.Payload})
		})
	}
	const inFlight = 16

	t.Run("local", func(t *testing.T) {
		s := simnet.New(1)
		nw := netem.New(s, model)
		nw.Attach(a.IP, bounce(nw, a))
		nw.Attach(b.IP, bounce(nw, b))
		for i := 0; i < inFlight; i++ {
			nw.Send(netem.Datagram{Src: a, Dst: b, Payload: make([]byte, 64)})
		}
		s.RunFor(10 * time.Millisecond) // warm the free lists
		delivered = 0
		if allocs := testing.AllocsPerRun(20, func() { s.RunFor(10 * time.Millisecond) }); allocs != 0 {
			t.Errorf("%.2f allocations per 10 ms of bouncing datagrams, want 0", allocs)
		}
		if delivered < 20*10*inFlight {
			t.Fatalf("only %d deliveries measured", delivered)
		}
	})

	t.Run("two-shard fabric", func(t *testing.T) {
		eng := simnet.NewSharded(1, 2, time.Millisecond)
		eng.SetWorkers(1) // windows run inline: the handlers share the delivered counter
		f := simtr.NewFabric(eng, model)
		f.Assign(a.IP, 0)
		f.Assign(b.IP, 1)
		f.Net(0).Attach(a.IP, bounce(f.Net(0), a))
		f.Net(1).Attach(b.IP, bounce(f.Net(1), b))
		eng.Shard(0).Schedule(0, func() {
			for i := 0; i < inFlight; i++ {
				f.Net(0).Send(netem.Datagram{Src: a, Dst: b, Payload: make([]byte, 64)})
			}
		})
		eng.RunFor(10 * time.Millisecond)
		delivered = 0
		if allocs := testing.AllocsPerRun(20, func() { eng.RunFor(10 * time.Millisecond) }); allocs != 0 {
			t.Errorf("%.2f allocations per 10 ms of datagrams bouncing between shards, want 0", allocs)
		}
		if delivered < 20*10*inFlight {
			t.Fatalf("only %d deliveries measured", delivered)
		}
	})
}
