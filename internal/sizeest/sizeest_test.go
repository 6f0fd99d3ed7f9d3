package sizeest_test

import (
	"math"
	"testing"
	"time"

	"whisper/internal/identity"
	"whisper/internal/ppss"
	"whisper/internal/sim"
	"whisper/internal/sizeest"
)

// TestEstimateConverges forms a 12-member group in a 60-node world,
// runs the counting protocol past two epoch boundaries and checks what
// every member reads against the true size.
func TestEstimateConverges(t *testing.T) {
	const worldN, groupN = 60, 12
	w, err := sim.NewWorld(sim.Options{
		Seed: 5, N: worldN, NATRatio: 0.7,
		KeyPool: identity.TestPool(32),
		PPSS: &ppss.Config{
			Cycle:       30 * time.Second,
			RespTimeout: 15 * time.Second,
			JoinTimeout: 20 * time.Second,
			KeyBlobSize: 256,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	w.StartAll()
	w.Sim.RunUntil(4 * time.Minute)
	members := w.Live()[:groupN]
	leader, err := members[0].PPSS.CreateGroup("count")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range members[1:] {
		accr, entry, err := leader.Invite(m.ID())
		if err != nil {
			t.Fatal(err)
		}
		m.PPSS.Join("count", accr, entry, func(*ppss.Instance, error) {})
		w.Sim.RunFor(5 * time.Second)
	}
	w.Sim.RunFor(4 * time.Minute)

	g := ppss.GroupIDFromName("count")
	var ests []*sizeest.Estimator
	for _, m := range members {
		if inst := m.PPSS.Instance(g); inst != nil {
			ests = append(ests, sizeest.New(inst, sizeest.Config{Cycle: 15 * time.Second}))
		}
	}
	if len(ests) != groupN {
		t.Fatalf("only %d/%d members joined", len(ests), groupN)
	}
	// Only the leader seeds mass; a member reads nothing before its
	// first exchange.
	if _, ok := ests[1].Estimate(); ok {
		t.Fatal("member has an estimate before any exchange")
	}
	// Two full epochs (default 20 cycles each).
	w.Sim.RunFor(12 * time.Minute)

	// After a completed epoch every member reads the size within 10 %.
	for i, e := range ests {
		v, ok := e.Estimate()
		if !ok || math.Abs(v-groupN) > 0.1*groupN {
			t.Errorf("member %d estimates %.2f (ok=%v), want %d ± 10%%", i, v, ok, groupN)
		}
	}
	for _, e := range ests {
		e.Stop()
	}
}
