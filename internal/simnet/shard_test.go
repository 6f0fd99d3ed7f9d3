package simnet

import (
	"fmt"
	"sort"
	"testing"
	"time"
)

// TestShardedLocalOrdering: events within one shard fire in (time,
// seq) order exactly like the plain engine.
func TestShardedLocalOrdering(t *testing.T) {
	d := NewSharded(1, 3, 10*time.Millisecond)
	var got []int
	d.Shard(0).After(30*time.Millisecond, func() { got = append(got, 3) })
	d.Shard(0).After(10*time.Millisecond, func() { got = append(got, 1) })
	d.Shard(0).After(20*time.Millisecond, func() { got = append(got, 2) })
	d.Run()
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("order = %v", got)
	}
	// Run drains through whole windows, so the final barrier is the last
	// window's edge: last event (30ms) + lookahead (10ms).
	if d.Now() != 40*time.Millisecond {
		t.Fatalf("barrier = %v, want 40ms", d.Now())
	}
}

// TestShardedCrossDeterministicOrder: cross-shard events exchanged at
// a barrier land in (time, source shard, per-source seq) order, no
// matter which order their source shards executed in, and with no sort
// at the barrier.
func TestShardedCrossDeterministicOrder(t *testing.T) {
	run := func() []string {
		d := NewSharded(7, 4, 10*time.Millisecond)
		var got []string
		// Every shard sends two events to shard 0, all delivered at the
		// same instant: order must be (src, seq).
		for s := 1; s < 4; s++ {
			s := s
			d.Shard(s).After(time.Millisecond, func() {
				for k := 0; k < 2; k++ {
					s, k := s, k
					d.Inject(s, 0, 50*time.Millisecond, func() {
						got = append(got, fmt.Sprintf("s%dk%d@%v", s, k, d.Shard(0).Now()))
					})
				}
			})
		}
		d.Run()
		return got
	}
	want := []string{"s1k0@50ms", "s1k1@50ms", "s2k0@50ms", "s2k1@50ms", "s3k0@50ms", "s3k1@50ms"}
	for trial := 0; trial < 10; trial++ {
		got := run()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: cross order = %v, want %v", trial, got, want)
		}
	}

	// The barrier posts each destination's lanes source by source without
	// sorting, and the order events then run in is the one a stable sort
	// of each exchange by (time, source) would have given — across
	// consecutive windows, among events of one timestamp from several
	// sources, with a source's later sends carrying earlier timestamps,
	// and whatever the worker count.
	type sent struct {
		at              time.Duration
		window, src, nr int
	}
	sweep := func(workers int) (got, want []sent) {
		d := NewSharded(7, 4, 10*time.Millisecond)
		d.SetWorkers(workers)
		var all []sent
		sends := make([][]sent, 4) // per source: shards run concurrently
		for src := 1; src < 4; src++ {
			src := src
			ticks := 0
			d.Shard(src).Every(7*time.Millisecond, func() {
				if ticks++; ticks > 6 {
					return
				}
				now := d.Shard(src).Now().Truncate(10 * time.Millisecond)
				window := int(d.Windows()) // one exchange per window
				// Two timestamps that every source and the neighbouring
				// windows' sends share, the later one sent first.
				for nr, at := range []time.Duration{now + 60*time.Millisecond, now + 50*time.Millisecond, now + 60*time.Millisecond} {
					ev := sent{at: at, window: window, src: src, nr: nr}
					sends[src] = append(sends[src], ev)
					d.Inject(src, 0, at, func() {
						if d.Shard(0).Now() != ev.at {
							t.Errorf("event due at %v ran at %v", ev.at, d.Shard(0).Now())
						}
						got = append(got, ev)
					})
				}
			})
		}
		d.RunUntil(200 * time.Millisecond)
		for _, s := range sends {
			all = append(all, s...)
		}
		// What the sorting barrier did: one stable sort per window.
		sort.SliceStable(all, func(i, j int) bool {
			a, b := all[i], all[j]
			if a.at != b.at {
				return a.at < b.at
			}
			if a.window != b.window {
				return a.window < b.window
			}
			return a.src < b.src
		})
		return got, all
	}
	for _, workers := range []int{1, 2, 8} {
		got, want := sweep(workers)
		if len(got) != 3*3*6 {
			t.Fatalf("workers=%d: %d events ran, want %d", workers, len(got), 3*3*6)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("workers=%d: events ran in\n%v\nwant\n%v", workers, got, want)
		}
	}
}

// TestShardedInjectBeforeWindowEdgePanics: a cross-shard event due
// before the end of the window being executed could find its
// destination already past it; it is refused, not re-timed.
func TestShardedInjectBeforeWindowEdgePanics(t *testing.T) {
	d := NewSharded(1, 2, 10*time.Millisecond)
	d.SetWorkers(1) // the panic must surface on this goroutine
	d.Shard(0).After(5*time.Millisecond, func() {
		// The window is (0, 15ms]: 12ms is inside it.
		d.Inject(0, 1, 12*time.Millisecond, func() {})
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Inject before the window edge did not panic")
			}
		}()
		d.Run()
	}()

	// From a control event the edge is the barrier.
	d = NewSharded(1, 2, 10*time.Millisecond)
	d.Schedule(30*time.Millisecond, func() { d.Inject(0, 1, 29*time.Millisecond, func() {}) })
	defer func() {
		if recover() == nil {
			t.Error("Inject before the barrier from a control event did not panic")
		}
	}()
	d.Run()
}

// TestShardedControlEventCrossSend: what a control event sends across
// shards is exchanged before the next window edge is computed, so it
// runs at its own timestamp even when nothing else is pending.
func TestShardedControlEventCrossSend(t *testing.T) {
	d := NewSharded(1, 2, 10*time.Millisecond)
	// Shard 0 keeps windows coming; without the early exchange the event
	// would sit in its lane through the window (30ms, 40ms] and then be
	// posted at 40ms, in shard 1's past.
	d.Shard(0).Every(10*time.Millisecond, func() {})
	ranAt := time.Duration(-1)
	d.Schedule(30*time.Millisecond, func() {
		d.Inject(0, 1, 33*time.Millisecond, func() { ranAt = d.Shard(1).Now() })
	})
	d.RunUntil(100 * time.Millisecond)
	if ranAt != 33*time.Millisecond {
		t.Fatalf("control event's cross-shard send ran at %v, want 33ms", ranAt)
	}

	// With nothing else pending at all it must still be seen.
	d = NewSharded(1, 2, 10*time.Millisecond)
	ran := false
	d.Schedule(30*time.Millisecond, func() { d.Inject(0, 1, 45*time.Millisecond, func() { ran = true }) })
	d.Run()
	if !ran {
		t.Fatal("a control event's cross-shard send was the only thing pending, and never ran")
	}
}

// TestShardedPingPong: two shards exchanging messages with the
// minimum latency make progress and keep causal time.
func TestShardedPingPong(t *testing.T) {
	const lat = 5 * time.Millisecond
	d := NewSharded(3, 2, lat)
	hops := 0
	var send func(from, to int)
	send = func(from, to int) {
		now := d.Shard(from).Now()
		d.Inject(from, to, now+lat, func() {
			if got := d.Shard(to).Now(); got != now+lat {
				t.Errorf("hop %d delivered at %v, want %v", hops, got, now+lat)
			}
			hops++
			if hops < 20 {
				send(to, from)
			}
		})
	}
	d.Shard(0).After(time.Millisecond, func() { send(0, 1) })
	d.Run()
	if hops != 20 {
		t.Fatalf("hops = %d, want 20", hops)
	}
	if want := time.Millisecond + 20*lat; d.Now() < want {
		t.Fatalf("barrier = %v, want ≥ %v", d.Now(), want)
	}
}

// TestShardedRunUntilAdvancesAllClocks: after RunUntil every shard
// clock and the barrier sit exactly at the horizon.
func TestShardedRunUntilAdvancesAllClocks(t *testing.T) {
	d := NewSharded(1, 3, time.Millisecond)
	fired := 0
	d.Shard(1).After(time.Second, func() { fired++ })
	d.Shard(2).After(3*time.Second, func() { fired++ })
	d.RunUntil(2 * time.Second)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if d.Now() != 2*time.Second {
		t.Fatalf("barrier = %v, want 2s", d.Now())
	}
	for i := 0; i < 3; i++ {
		if got := d.Shard(i).Now(); got != 2*time.Second {
			t.Fatalf("shard %d clock = %v, want 2s", i, got)
		}
	}
	d.RunFor(2 * time.Second)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

// TestShardedControlPlane: control events run at exact instants, in
// (time, seq) order, with all shards parked at the barrier.
func TestShardedControlPlane(t *testing.T) {
	d := NewSharded(1, 2, 10*time.Millisecond)
	var got []string
	d.Shard(0).Every(7*time.Millisecond, func() {})
	d.Schedule(25*time.Millisecond, func() {
		got = append(got, fmt.Sprintf("a@%v/%v/%v", d.Now(), d.Shard(0).Now(), d.Shard(1).Now()))
		// Nested control work at the same instant runs before windows resume.
		d.Schedule(25*time.Millisecond, func() { got = append(got, "b") })
	})
	d.Schedule(25*time.Millisecond, func() { got = append(got, "c") })
	d.RunUntil(40 * time.Millisecond)
	want := "[a@25ms/25ms/25ms c b]"
	if fmt.Sprint(got) != want {
		t.Fatalf("control trace = %v, want %v", got, want)
	}
}

// TestShardedStopAndResume mirrors the plain engine's Stop contract.
func TestShardedStopAndResume(t *testing.T) {
	d := NewSharded(1, 2, time.Millisecond)
	n := 0
	d.Shard(0).Every(time.Second, func() { n++ })
	d.Schedule(5*time.Second, func() { d.Stop() })
	d.Run()
	if n != 5 {
		t.Fatalf("events before Stop = %d, want 5", n)
	}
	d.RunUntil(d.Now() + 2*time.Second)
	if n != 7 {
		t.Fatalf("resume failed: n = %d, want 7", n)
	}
}

// TestShardedDeterminism: identical (seed, shards) runs produce
// identical event counts and traces; a different shard count produces
// a (deterministically) different run.
func TestShardedDeterminism(t *testing.T) {
	trace := func(seed int64, k int) (string, uint64) {
		d := NewSharded(seed, k, 2*time.Millisecond)
		// One trace buffer per shard: windows execute shards on separate
		// goroutines, so a shared slice would race.
		out := make([][]string, k)
		for i := 0; i < k; i++ {
			i := i
			var cycle func()
			cycle = func() {
				s := d.Shard(i)
				out[i] = append(out[i], fmt.Sprintf("%d@%v", i, s.Now()))
				if s.Now() < 50*time.Millisecond {
					// Random local hop plus a cross-shard hop.
					s.After(time.Duration(s.Rand().Intn(5)+1)*time.Millisecond, cycle)
					dst := (i + 1) % k
					d.Inject(i, dst, s.Now()+2*time.Millisecond, func() {})
				}
			}
			d.Shard(i).After(time.Millisecond, cycle)
		}
		d.Run()
		return fmt.Sprint(out), d.Executed()
	}
	t1, e1 := trace(11, 4)
	t2, e2 := trace(11, 4)
	if t1 != t2 || e1 != e2 {
		t.Fatalf("same (seed, shards) diverged: %d vs %d events", e1, e2)
	}
	t3, _ := trace(11, 2)
	if t1 == t3 {
		t.Fatal("different shard counts produced identical traces (suspicious)")
	}
}

// TestShardedFastForward: long empty stretches are skipped without
// degenerating into one window per lookahead.
func TestShardedFastForward(t *testing.T) {
	d := NewSharded(1, 2, time.Millisecond)
	fired := false
	d.Shard(1).After(time.Hour, func() { fired = true })
	d.Run()
	if !fired {
		t.Fatal("event never fired")
	}
	if d.Windows() > 4 {
		t.Fatalf("windows = %d for a single far-future event, want ≤ 4", d.Windows())
	}
}

// TestShardedWindowHook: the hook observes contiguous windows.
func TestShardedWindowHook(t *testing.T) {
	d := NewSharded(1, 2, time.Millisecond)
	d.Shard(0).Every(500*time.Microsecond, func() {})
	var last time.Duration
	calls := 0
	d.SetWindowHook(func(start, end time.Duration) {
		if start != last {
			t.Errorf("window start %v, want %v (contiguous)", start, last)
		}
		if end <= start {
			t.Errorf("empty window [%v, %v]", start, end)
		}
		last = end
		calls++
	})
	d.RunUntil(10 * time.Millisecond)
	if calls == 0 || uint64(calls) != d.Windows() {
		t.Fatalf("hook calls = %d, windows = %d", calls, d.Windows())
	}
}

// TestShardedSeedStreamsDiffer: shard random streams are decorrelated.
func TestShardedSeedStreamsDiffer(t *testing.T) {
	d := NewSharded(5, 4, time.Millisecond)
	seen := map[int64]bool{}
	for i := 0; i < 4; i++ {
		v := d.Shard(i).Rand().Int63()
		if seen[v] {
			t.Fatalf("shard %d repeats another shard's first draw", i)
		}
		seen[v] = true
	}
}

// TestShardedReentrantRunPanics mirrors the plain engine's guard.
func TestShardedReentrantRunPanics(t *testing.T) {
	d := NewSharded(1, 2, time.Millisecond)
	d.Schedule(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant sharded Run did not panic")
			}
		}()
		d.Run()
	})
	d.Run()
}

func BenchmarkShardedWindowOverhead(b *testing.B) {
	d := NewSharded(1, 8, time.Millisecond)
	for i := 0; i < 8; i++ {
		d.Shard(i).Every(100*time.Microsecond, func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.RunFor(time.Millisecond)
	}
}
