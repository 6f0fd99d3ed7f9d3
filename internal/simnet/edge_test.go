package simnet

import (
	"testing"
	"time"

	"whisper/internal/wire/wiretest"
)

// Edge cases the sharded refactor must preserve in the plain engine.

// TestCompactionMidRun: cancelling a large batch of timers from inside
// an executing event triggers heap compaction while Run is draining
// the heap; live events scheduled around the compaction still fire, in
// order, exactly once.
func TestCompactionMidRun(t *testing.T) {
	s := New(1)
	var doomed []*Timer
	for i := 0; i < 500; i++ {
		doomed = append(doomed, s.After(time.Hour, func() { t.Error("cancelled timer fired") }))
	}
	var fired []time.Duration
	for i := 1; i <= 5; i++ {
		i := i
		s.After(time.Duration(i)*time.Second, func() { fired = append(fired, s.Now()) })
	}
	s.After(2500*time.Millisecond, func() {
		// Mass-cancel mid-run: compaction rebuilds the heap under Run's
		// feet (the pop loop re-reads the heap each iteration).
		for _, tm := range doomed {
			tm.Cancel()
		}
		if s.Cancelled()*2 > s.Pending() && s.Pending() >= 64 {
			t.Errorf("compaction did not run: %d cancelled of %d pending", s.Cancelled(), s.Pending())
		}
		fired = append(fired, s.Now())
	})
	s.Run()
	want := []time.Duration{
		time.Second, 2 * time.Second, 2500 * time.Millisecond,
		3 * time.Second, 4 * time.Second, 5 * time.Second,
	}
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d: %v", len(fired), len(want), fired)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("event %d at %v, want %v", i, fired[i], want[i])
		}
	}
	if s.Pending() != 0 || s.Cancelled() != 0 {
		t.Fatalf("after Run: pending=%d cancelled=%d, want 0/0", s.Pending(), s.Cancelled())
	}
}

// TestRunUntilExactlyOnEventTimestamp: an event scheduled exactly at
// the RunUntil horizon runs (the bound is inclusive), the clock ends
// exactly there, and re-running until the same instant is a no-op.
func TestRunUntilExactlyOnEventTimestamp(t *testing.T) {
	s := New(1)
	var at []time.Duration
	s.After(time.Second, func() { at = append(at, s.Now()) })
	s.After(time.Second, func() { at = append(at, s.Now()) }) // FIFO twin at the bound
	s.After(time.Second+time.Nanosecond, func() { at = append(at, s.Now()) })
	s.RunUntil(time.Second)
	if len(at) != 2 || at[0] != time.Second || at[1] != time.Second {
		t.Fatalf("events at horizon: %v, want two at exactly 1s", at)
	}
	if s.Now() != time.Second {
		t.Fatalf("Now = %v, want exactly 1s", s.Now())
	}
	s.RunUntil(time.Second) // idempotent: nothing new ≤ 1s
	if len(at) != 2 {
		t.Fatalf("re-running until the same instant fired %d extra events", len(at)-2)
	}
	s.RunUntil(time.Second + time.Nanosecond)
	if len(at) != 3 || at[2] != time.Second+time.Nanosecond {
		t.Fatalf("1ns-later event: %v", at)
	}
}

// TestTickerStopInsideOwnCallbackThenReschedule: stopping a ticker
// from its own callback must not only halt it (covered elsewhere) but
// also leave the engine clean enough to host a replacement ticker with
// the same period — the restart pattern route maintenance uses.
func TestTickerStopInsideOwnCallbackThenReschedule(t *testing.T) {
	s := New(1)
	firstTicks, secondTicks := 0, 0
	var tk *Ticker
	tk = s.Every(time.Second, func() {
		firstTicks++
		if firstTicks == 2 {
			tk.Stop()
			tk.Stop() // idempotent from inside the callback too
			s.Every(time.Second, func() { secondTicks++ })
		}
	})
	s.RunUntil(6 * time.Second)
	if firstTicks != 2 {
		t.Fatalf("first ticker ticked %d times, want 2", firstTicks)
	}
	// Replacement starts at t=2s, first fire 3s, then 4s, 5s, 6s.
	if secondTicks != 4 {
		t.Fatalf("replacement ticker ticked %d times, want 4", secondTicks)
	}
}

// TestTimerCancelAfterGenerationRecycling: a stale handle must stay
// inert across MANY recycles of its event slot, and Stopped must keep
// reporting true even while the slot hosts a live timer of a newer
// generation.
func TestTimerCancelAfterGenerationRecycling(t *testing.T) {
	s := New(1)
	stale := s.After(time.Second, func() {})
	s.Run()
	fired := 0
	for round := 0; round < 100; round++ {
		// Each round likely reuses the recycled slot; the stale handle
		// must never cancel the current occupant.
		cur := s.After(time.Second, func() { fired++ })
		stale.Cancel()
		if !stale.Stopped() {
			t.Fatalf("round %d: stale handle reports live", round)
		}
		if cur.Stopped() {
			t.Fatalf("round %d: stale Cancel stopped a recycled-slot timer", round)
		}
		s.Run()
	}
	if fired != 100 {
		t.Fatalf("fired = %d, want 100", fired)
	}
}

// TestScheduleAndTickerAllocateNothing: posting an event without asking
// for a handle (Schedule, the barrier exchange) and a ticker re-arming
// itself take their event from the free list and build neither a
// closure nor a Timer.
func TestScheduleAndTickerAllocateNothing(t *testing.T) {
	if wiretest.RaceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	s := New(1)
	ticks, fired := 0, 0
	s.EveryJitter(time.Second, time.Second/2, func() { ticks++ })
	fire := func() { fired++ }
	step := func() {
		s.Schedule(s.Now()+time.Second, fire)
		s.RunFor(10 * time.Second)
	}
	step() // warm the free list
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("%.2f allocations per 10 s of ticking and scheduling, want 0", allocs)
	}
	if ticks < 300 || fired != 52 {
		t.Fatalf("%d ticks and %d scheduled events ran", ticks, fired)
	}

	d := NewSharded(1, 2, time.Millisecond)
	d.SetWorkers(1)
	crossed := 0
	cross := func() { crossed++ }
	d.Shard(0).Every(time.Millisecond, func() {
		for k := 0; k < 8; k++ {
			d.Inject(0, 1, d.Shard(0).Now()+time.Millisecond, cross)
		}
	})
	d.RunFor(10 * time.Millisecond)
	if allocs := testing.AllocsPerRun(50, func() { d.RunFor(10 * time.Millisecond) }); allocs != 0 {
		t.Errorf("%.2f allocations per 10 windows of barrier exchange, want 0", allocs)
	}
	if crossed < 50*10*8 {
		t.Fatalf("only %d cross-shard events ran", crossed)
	}
}
