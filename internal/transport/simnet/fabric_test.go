package simnet_test

import (
	"fmt"
	"testing"
	"time"

	"whisper/internal/netem"
	"whisper/internal/simnet"
	simtr "whisper/internal/transport/simnet"
)

// TestFabricParallelWindowsShareOneTable: every shard reads the fabric's
// routing table while its windows run (owner on send, handler on
// delivery) and the barrier drains every destination's lanes on the
// window workers, while control events between windows detach hosts,
// bring them back and grow the table with new ones. The run is the same
// whatever the worker count; under -race this is the test that watches
// the shared table and the parallel exchange.
func TestFabricParallelWindowsShareOneTable(t *testing.T) {
	const (
		shards = 4
		hosts  = 64
		first  = netem.IP(100)
	)
	run := func(workers int) string {
		eng := simnet.NewSharded(3, shards, time.Millisecond)
		eng.SetWorkers(workers)
		f := simtr.NewFabric(eng, netem.Lossy{Model: netem.Fixed{D: time.Millisecond}, P: 0.02})
		got := make([]int, hosts+shards) // one counter per host, written by its own shard only
		population := hosts              // read by every shard during windows, written between them
		attach := func(i int) {
			shard, ip := i%shards, first+netem.IP(i)
			self := netem.Endpoint{IP: ip, Port: 1}
			nw, rng := f.Net(shard), eng.Shard(shard).Rand()
			f.Assign(ip, shard)
			nw.Attach(ip, netem.HandlerFunc(func(dg netem.Datagram) {
				got[i]++
				next := first + netem.IP(rng.Intn(population))
				nw.Send(netem.Datagram{Src: self, Dst: netem.Endpoint{IP: next, Port: 1}, Payload: dg.Payload})
			}))
		}
		for i := 0; i < hosts; i++ {
			attach(i)
		}
		for i := 0; i < hosts; i++ {
			src := netem.Endpoint{IP: first + netem.IP(i), Port: 1}
			dst := netem.Endpoint{IP: first + netem.IP((i*7+1)%hosts), Port: 1}
			f.Net(i % shards).Send(netem.Datagram{Src: src, Dst: dst, Payload: []byte{byte(i)}})
		}
		// Churn at barriers: host 5 leaves for 10 ms (datagrams to it cross
		// to its shard and are dropped there), and one host per shard joins
		// beyond the end of the table.
		eng.Schedule(20*time.Millisecond, func() { f.Net(5 % shards).Detach(first + 5) })
		eng.Schedule(30*time.Millisecond, func() { attach(5) })
		for k := 0; k < shards; k++ {
			k := k
			eng.Schedule(time.Duration(25+5*k)*time.Millisecond, func() {
				attach(hosts + k)
				population++
			})
		}
		eng.RunUntil(80 * time.Millisecond)
		sent, dropped := f.Stats()
		return fmt.Sprintf("events=%d windows=%d sent=%d dropped=%d got=%v", eng.Executed(), eng.Windows(), sent, dropped, got)
	}
	want := run(1)
	for _, workers := range []int{2, 8} {
		for trial := 0; trial < 3; trial++ {
			if got := run(workers); got != want {
				t.Fatalf("workers=%d diverged from the inline run:\n got %s\nwant %s", workers, got, want)
			}
		}
	}
}

// TestFabricRoutes: an assigned address is reached from every shard, an
// unassigned one only from the network it is attached to, and a detached
// one drops at its owner.
func TestFabricRoutes(t *testing.T) {
	eng := simnet.NewSharded(1, 2, time.Millisecond)
	f := simtr.NewFabric(eng, netem.Fixed{D: time.Millisecond})
	var got []string
	listen := func(shard int, ip netem.IP) {
		f.Net(shard).Attach(ip, netem.HandlerFunc(func(dg netem.Datagram) {
			got = append(got, fmt.Sprintf("%v<-%v on shard %d", ip, dg.Src.IP, shard))
		}))
	}
	send := func(shard int, src, dst netem.IP) {
		f.Net(shard).Send(netem.Datagram{Src: netem.Endpoint{IP: src, Port: 1}, Dst: netem.Endpoint{IP: dst, Port: 1}})
	}
	eng.SetWorkers(1) // the handlers share got
	f.Assign(10, 0)
	f.Assign(11, 1)
	listen(0, 10)
	listen(1, 11)
	listen(1, 12) // attached but never assigned: local to whoever sends

	send(0, 10, 11) // crosses
	send(1, 11, 10) // crosses back
	send(1, 11, 12) // stays on shard 1
	eng.RunFor(5 * time.Millisecond)
	// All three arrive at 1 ms; shard 0 runs first, and on shard 1 the
	// local send was queued before the barrier brought the other one.
	want := "[P10<-P11 on shard 0 P12<-P11 on shard 1 P11<-P10 on shard 1]"
	if fmt.Sprint(got) != want {
		t.Fatalf("deliveries = %v, want %v", got, want)
	}

	if !f.Net(1).Attached(11) || f.Net(1).Attached(13) || f.Net(1).Attached(1<<20) {
		t.Fatal("Attached disagrees with what was attached")
	}
	f.Net(1).Detach(11)
	f.Net(1).Detach(1 << 20) // never seen: nothing to do
	send(0, 10, 11)
	eng.RunFor(5 * time.Millisecond)
	if _, dropped := f.Net(1).Stats(); dropped != 1 {
		t.Fatalf("shard 1 dropped %d datagrams for its detached address, want 1", dropped)
	}
	f.Unassign(11)
	send(0, 10, 11)
	eng.RunFor(5 * time.Millisecond)
	if _, dropped := f.Net(0).Stats(); dropped != 1 {
		t.Fatalf("shard 0 dropped %d datagrams for an unrouted address, want 1", dropped)
	}

	defer func() {
		if recover() == nil {
			t.Error("attaching a private address to the routed network did not panic")
		}
	}()
	f.Net(0).Attach(netem.PrivateBase+1, netem.HandlerFunc(func(netem.Datagram) {}))
}
