package sim_test

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"whisper/internal/broadcast"
	"whisper/internal/identity"
	"whisper/internal/obs"
	"whisper/internal/ppss"
	"whisper/internal/pubsub"
	"whisper/internal/sim"
	"whisper/internal/tchord"
	"whisper/internal/wcl"
)

var updateMetrics = flag.Bool("update-metrics", false, "rewrite testdata/metrics.golden")

// TestMetricsGolden pins what an observed world exports: every counter
// and gauge (name, labels, value) and every histogram's name and
// observation count, from a world that drives all seven per-layer
// counter sets — nylon, wcl, the ppss instance and router, pub/sub,
// T-Chord and broadcast. Histogram values are left out: several are
// host-timed (onion build/peel, pub/sub match latency).
//
// Regenerate with: go test ./internal/sim -run TestMetricsGolden -update-metrics
func TestMetricsGolden(t *testing.T) {
	reg := obs.NewRegistry()
	w, err := sim.NewWorld(sim.Options{
		Seed: 36, N: 24, NATRatio: 0.6,
		KeyPool: identity.TestPool(24),
		WCL:     &wcl.Config{MinPublic: 2},
		PPSS: &ppss.Config{
			Cycle:       30 * time.Second,
			RespTimeout: 15 * time.Second,
			JoinTimeout: 20 * time.Second,
			KeyBlobSize: 256,
		},
		Obs: reg.Scope("world", "golden"),
	})
	if err != nil {
		t.Fatal(err)
	}
	w.StartAll()
	w.Sim.RunUntil(4 * time.Minute)

	members := w.Live()[:8]
	leader, err := members[0].PPSS.CreateGroup("golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range members[1:] {
		m := m
		var try func(attempt int)
		try = func(attempt int) {
			accr, entry, err := leader.Invite(m.ID())
			if err != nil {
				t.Fatal(err)
			}
			m.PPSS.Join("golden", accr, entry, func(_ *ppss.Instance, err error) {
				if err != nil && attempt < 3 {
					try(attempt + 1)
				}
			})
		}
		try(1)
		w.Sim.RunFor(5 * time.Second)
	}
	w.Sim.RunFor(4 * time.Minute)

	g := ppss.GroupIDFromName("golden")
	var (
		ring []*tchord.Node
		bcs  []*broadcast.Broadcaster
		pss  []*pubsub.PubSub
	)
	for _, m := range members {
		inst := m.PPSS.Instance(g)
		if inst == nil {
			continue
		}
		n := tchord.New(inst, tchord.Config{PinRing: true})
		n.Start()
		ring = append(ring, n)
		bcs = append(bcs, broadcast.New(inst, broadcast.Config{}))
		ps := pubsub.New(inst, pubsub.Config{})
		if err := ps.Subscribe("topic-a"); err != nil {
			t.Fatal(err)
		}
		pss = append(pss, ps)
	}
	if len(ring) < 4 {
		t.Fatalf("only %d members joined", len(ring))
	}
	w.Sim.RunFor(6 * time.Minute)

	for i, n := range ring {
		n.Put(fmt.Sprintf("key-%d", i), []byte("value"), func(tchord.LookupResult) {})
	}
	bcs[1].Publish([]byte("to everyone"))
	if err := pss[2].Publish("topic-a", []byte("to subscribers")); err != nil {
		t.Fatal(err)
	}
	w.Sim.RunFor(time.Minute)
	for i, n := range ring {
		n.Get(fmt.Sprintf("key-%d", (i+1)%len(ring)), func(tchord.LookupResult) {})
	}
	natted := w.LiveNatted()
	src, dst := natted[0], natted[1]
	src.WCL.SendStream(destFor(w, dst, 3), make([]byte, 8<<10), func(wcl.Result) {})
	w.Sim.RunFor(2 * time.Minute)

	got := formatMetrics(reg.Export())
	const path = "testdata/metrics.golden"
	if *updateMetrics {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-metrics to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("metrics differ from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("metrics differ from %s: %d lines, want %d", path, len(gl), len(wl))
	}

	// The world must have driven every counter set, or the golden pins
	// nothing for it.
	seen := map[string]bool{}
	for _, p := range reg.Export() {
		if p.Value != nil && *p.Value != 0 {
			seen[strings.SplitN(p.Name, "_", 2)[0]] = true
		}
	}
	for _, layer := range []string{"nylon", "wcl", "ppss", "pubsub", "tchord", "broadcast"} {
		if !seen[layer] {
			t.Errorf("no %s counter moved", layer)
		}
	}
}

// destFor addresses target through up to maxHelpers of its backlog's
// P-nodes.
func destFor(w *sim.World, target *sim.Node, maxHelpers int) wcl.Dest {
	d := wcl.Dest{ID: target.ID(), Key: target.Nylon.Identity().Public()}
	for _, e := range target.WCL.Backlog().Publics() {
		if h := w.Get(e.Desc.ID); h != nil && len(d.Helpers) < maxHelpers {
			d.Helpers = append(d.Helpers, wcl.Helper{ID: h.ID(), Endpoint: h.Nylon.Addr(), Key: h.Nylon.Identity().Public()})
		}
	}
	return d
}

// formatMetrics renders one line per instrument: scalar values for
// counters and gauges, the observation count for histograms.
func formatMetrics(points []obs.MetricPoint) string {
	var sb strings.Builder
	for _, p := range points {
		keys := make([]string, 0, len(p.Labels))
		for k := range p.Labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		labels := make([]string, len(keys))
		for i, k := range keys {
			labels[i] = k + "=" + p.Labels[k]
		}
		fmt.Fprintf(&sb, "%s %s{%s} ", p.Kind, p.Name, strings.Join(labels, ","))
		if p.Value != nil {
			fmt.Fprintf(&sb, "%g\n", *p.Value)
		} else {
			fmt.Fprintf(&sb, "count=%d\n", p.Count)
		}
	}
	return sb.String()
}
