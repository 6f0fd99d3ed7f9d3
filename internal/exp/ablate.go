package exp

import (
	"fmt"
	"io"
	"time"

	"whisper/internal/identity"
	"whisper/internal/netem"
	"whisper/internal/nylon"
	"whisper/internal/obs"
	"whisper/internal/parallel"
	"whisper/internal/ppss"
	"whisper/internal/sim"
	"whisper/internal/stats"
	"whisper/internal/wcl"
)

// AblateConfig parameterizes the ablation studies of the design choices
// DESIGN.md calls out: NAT lease style, hole punching, the second view
// bias, and mix-path length.
type AblateConfig struct {
	Seed    int64
	N       int
	Groups  int
	Warmup  time.Duration
	Measure time.Duration
	KeyBlob int
	// Parallel bounds the worker pool running the independent variant
	// runs (<= 0: one worker per CPU; 1: sequential).
	Parallel int
}

func (c AblateConfig) withDefaults() AblateConfig {
	if c.N == 0 {
		c.N = 300
	}
	if c.Groups == 0 {
		c.Groups = 6
	}
	if c.Warmup == 0 {
		c.Warmup = 10 * time.Minute
	}
	if c.Measure == 0 {
		c.Measure = 8 * time.Minute
	}
	if c.KeyBlob == 0 {
		c.KeyBlob = 512
	}
	return c
}

// AblationRow summarizes one variant.
type AblationRow struct {
	Study   string
	Variant string
	Metrics map[string]float64
	Order   []string // metric print order
}

// Ablations runs all five studies — flattened into one job per variant
// so the worker pool sees every independent run — and returns one row
// per variant in the sequential harness's order (lease tcp/udp,
// punching default/relay-only, bias quota/cap, mixes 2/3, faults
// none/dup+reorder/burst). New variants append at the end so existing
// jobs keep their key-pool view indices and results stay reproducible
// across versions.
func Ablations(cfg AblateConfig) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	type job struct {
		run     func(AblateConfig, *identity.Pool, int) (AblationRow, error)
		variant int
	}
	var jobs []job
	for _, s := range []struct {
		run      func(AblateConfig, *identity.Pool, int) (AblationRow, error)
		variants int
	}{{ablateLease, 2}, {ablatePunching, 2}, {ablateBiasCap, 2}, {ablateMixCount, 2}, {ablateFaults, 3}} {
		for vi := range s.variants {
			jobs = append(jobs, job{s.run, vi})
		}
	}
	workers := parallel.Workers(cfg.Parallel)
	return parallel.Map(workers, len(jobs), func(i int) (AblationRow, error) {
		return jobs[i].run(cfg, keyPool.View(i), jobs[i].variant)
	})
}

// ablateLease compares TCP-style 24 h NAT association rules (the
// paper's RFC 5382 setting, our default) with UDP-style 5-minute rules:
// warm routes decay before view entries rotate, so first-try route
// success collapses.
func ablateLease(cfg AblateConfig, pool *identity.Pool, vi int) (AblationRow, error) {
	v := []struct {
		name  string
		lease time.Duration
		ttl   time.Duration
	}{
		{"tcp-24h (default)", 0, 0},
		{"udp-5min", 5 * time.Minute, 4 * time.Minute},
	}[vi]
	w, err := sim.NewWorld(sim.Options{
		Seed: cfg.Seed, N: cfg.N, NATRatio: 0.7, KeyPool: pool,
		NATLease: v.lease,
		Nylon:    nylon.Config{ContactTTL: v.ttl},
		WCL:      &wcl.Config{MinPublic: 3},
		PPSS:     &ppss.Config{KeyBlobSize: cfg.KeyBlob, MinHelpers: 3},
		Obs:      worldObs("ablate/nat-lease/" + v.name),
	})
	if err != nil {
		return AblationRow{}, err
	}
	startGroups(w, cfg.Groups, 1, cfg.Warmup)
	routes, first, _, _ := measureRoutes(w, cfg.Measure)
	return AblationRow{
		Study: "nat-lease", Variant: v.name,
		Metrics: map[string]float64{"first-try %": pct(first, routes), "routes": routes},
		Order:   []string{"first-try %", "routes"},
	}, nil
}

// ablatePunching compares the default traversal (hole punching where
// the NAT pair allows it) with relay-only forwarding (the Leitao et al.
// alternative surveyed in §VI). One-shot gossip exchanges route through
// relays either way (the first contact with a fresh partner always
// does), so the discriminating effect of punching is the pool of direct
// N↔N associations it leaves behind — the warm routes that the WCL's
// backlog and persistent paths then reuse.
func ablatePunching(cfg AblateConfig, pool *identity.Pool, vi int) (AblationRow, error) {
	v := []struct {
		name    string
		disable bool
	}{
		{"punching (default)", false},
		{"relay-only", true},
	}[vi]
	w, err := sim.NewWorld(sim.Options{
		Seed: cfg.Seed, N: cfg.N, NATRatio: 0.7, KeyPool: pool,
		Nylon: nylon.Config{DisablePunch: v.disable, MinPublic: 3},
		Obs:   worldObs("ablate/nat-traversal/" + v.name),
	})
	if err != nil {
		return AblationRow{}, err
	}
	w.StartAll()
	w.Sim.RunUntil(cfg.Warmup)
	var punches uint64
	var contacts, nnContacts []float64
	for _, n := range w.Live() {
		punches += n.Nylon.Stats().PunchSuccesses
		ids := n.Nylon.ContactIDs()
		contacts = append(contacts, float64(len(ids)))
		nn := 0
		if !n.Public() {
			for _, id := range ids {
				if peer := w.Get(id); peer != nil && !peer.Public() {
					nn++
				}
			}
			nnContacts = append(nnContacts, float64(nn))
		}
	}
	return AblationRow{
		Study: "nat-traversal", Variant: v.name,
		Metrics: map[string]float64{
			"punches":          float64(punches),
			"contacts/node":    stats.Summarize(contacts).Mean,
			"N-N directs/node": stats.Summarize(nnContacts).Mean,
		},
		Order: []string{"punches", "contacts/node", "N-N directs/node"},
	}, nil
}

// ablateBiasCap exercises the paper's second bias in its intended
// regime — Π higher than the network's P-node share (§III-B-1's example
// of Π=3 with only 10% P-nodes) — with and without discarding excess
// P-nodes first.
func ablateBiasCap(cfg AblateConfig, pool *identity.Pool, vi int) (AblationRow, error) {
	v := []struct {
		name string
		cap  bool
	}{
		{"min-quota only", false},
		{"min-quota + cap", true},
	}[vi]
	w, err := sim.NewWorld(sim.Options{
		Seed: cfg.Seed, N: cfg.N, NATRatio: 0.9, KeyPool: pool,
		Nylon: nylon.Config{MinPublic: 3, CapExcessPublic: v.cap},
		Obs:   worldObs("ablate/view-bias/" + v.name),
	})
	if err != nil {
		return AblationRow{}, err
	}
	w.StartAll()
	w.Sim.RunUntil(cfg.Warmup)
	in := w.GraphStream().InDegrees()
	var pIn []float64
	quotaOK := 0
	for _, n := range w.Live() {
		if n.Public() {
			pIn = append(pIn, float64(in[n.ID()]))
		}
		pubs := 0
		for _, e := range n.Nylon.View() {
			if e.Val.Public {
				pubs++
			}
		}
		if pubs >= 3 {
			quotaOK++
		}
	}
	s := stats.Summarize(pIn)
	return AblationRow{
		Study: "view-bias", Variant: v.name,
		Metrics: map[string]float64{
			"P in-deg mean": s.Mean,
			"P in-deg max":  s.Max,
			"quota-ok %":    pct(float64(quotaOK), float64(len(w.Live()))),
		},
		Order: []string{"P in-deg mean", "P in-deg max", "quota-ok %"},
	}, nil
}

// ablateMixCount compares 2-mix paths (the paper's default) with 3-mix
// paths (collusion resistance per footnote 2): success stays high, the
// cost is one more RSA layer and hop of latency.
func ablateMixCount(cfg AblateConfig, pool *identity.Pool, vi int) (AblationRow, error) {
	mixes := []int{2, 3}[vi]
	w, err := sim.NewWorld(sim.Options{
		Seed: cfg.Seed, N: cfg.N, NATRatio: 0.7, KeyPool: pool,
		WCL:  &wcl.Config{MinPublic: 3, Mixes: mixes},
		PPSS: &ppss.Config{KeyBlobSize: cfg.KeyBlob, MinHelpers: 3},
		Obs:  worldObs(fmt.Sprintf("ablate/mix-count/%d mixes", mixes)),
	})
	if err != nil {
		return AblationRow{}, err
	}
	startGroups(w, cfg.Groups, 1, cfg.Warmup)

	var rtts []time.Duration
	for _, n := range w.Live() {
		for _, inst := range n.PPSS.Instances() {
			inst.OnExchangeRTT = func(rtt time.Duration) { rtts = append(rtts, rtt) }
		}
	}
	routes, first, _, _ := measureRoutes(w, cfg.Measure)
	rtt := stats.Percentile(durationsToSeconds(rtts), 50)
	return AblationRow{
		Study: "mix-count", Variant: fmt.Sprintf("%d mixes", mixes),
		Metrics: map[string]float64{
			"first-try %":  pct(first, routes),
			"rtt p50 (ms)": rtt * 1000,
		},
		Order: []string{"first-try %", "rtt p50 (ms)"},
	}, nil
}

// deliveryCounter detects duplicate deliveries: a deliver event must
// fire at most once per path, whatever the network does. Counting per
// path needs the correlation key, so this is an obs.Correlator — the
// omniscient-observer role only the simulator may take.
type deliveryCounter struct {
	counts map[uint64]int
	dups   int
}

func (d *deliveryCounter) Record(node uint64, ev obs.Event) { d.RecordCorrelated(node, ev, 0) }

func (d *deliveryCounter) RecordCorrelated(_ uint64, ev obs.Event, corr uint64) {
	if ev.Kind != obs.KindDeliver {
		return
	}
	d.counts[corr]++
	if d.counts[corr] > 1 {
		d.dups++
	}
}

// ablateFaults measures confidential-route success under the netem
// fault layer: duplication plus reordering (middlebox pathologies) and
// Gilbert-Elliott burst loss. The claim under test is graceful
// degradation — the retry machinery absorbs the faults, success does
// not collapse — with strictly exactly-once delivery: a duplicated
// forward must never reach the application twice.
func ablateFaults(cfg AblateConfig, pool *identity.Pool, vi int) (AblationRow, error) {
	v := []struct {
		name   string
		faults *netem.FaultModel
	}{
		{"none (baseline)", nil},
		{"dup 5% + reorder", &netem.FaultModel{
			DupProb: 0.05, ReorderProb: 0.25, ReorderJitter: 200 * time.Millisecond,
		}},
		{"burst loss", &netem.FaultModel{
			Burst: &netem.GilbertElliott{PGoodBad: 0.02, PBadGood: 0.3, LossBad: 0.6},
		}},
	}[vi]
	w, err := sim.NewWorld(sim.Options{
		Seed: cfg.Seed, N: cfg.N, NATRatio: 0.7, KeyPool: pool,
		Faults: v.faults,
		WCL:    &wcl.Config{MinPublic: 3},
		PPSS:   &ppss.Config{KeyBlobSize: cfg.KeyBlob, MinHelpers: 3},
		Obs:    worldObs("ablate/faults/" + v.name),
	})
	if err != nil {
		return AblationRow{}, err
	}
	tracer := &deliveryCounter{counts: map[uint64]int{}}
	for _, n := range w.Nodes {
		n.WCL.Trace = obs.NewTracer(uint64(n.Nylon.ID()), tracer)
	}
	startGroups(w, cfg.Groups, 1, cfg.Warmup)
	routes, first, ok, suppressed := measureRoutes(w, cfg.Measure)
	return AblationRow{
		Study: "faults", Variant: v.name,
		Metrics: map[string]float64{
			"ok %":            pct(ok, routes),
			"first-try %":     pct(first, routes),
			"routes":          routes,
			"dup deliveries":  float64(tracer.dups),
			"dups suppressed": suppressed,
		},
		Order: []string{"ok %", "first-try %", "routes", "dup deliveries", "dups suppressed"},
	}, nil
}

// PrintAblations renders the ablation table.
func PrintAblations(out io.Writer, rows []AblationRow) {
	fmt.Fprintln(out, "== Ablations: design-choice studies ==")
	tb := stats.NewTable("study", "variant", "metrics")
	for _, r := range rows {
		m := ""
		for i, k := range r.Order {
			if i > 0 {
				m += "  "
			}
			m += fmt.Sprintf("%s=%.2f", k, r.Metrics[k])
		}
		tb.Row(r.Study, r.Variant, m)
	}
	fmt.Fprint(out, tb.String())
}

// AblationShapeCheck verifies the expected directional effects.
func AblationShapeCheck(rows []AblationRow) []string {
	byKey := map[string]AblationRow{}
	for _, r := range rows {
		byKey[r.Study+"/"+r.Variant] = r
	}
	var bad []string
	if tcp, udp := byKey["nat-lease/tcp-24h (default)"], byKey["nat-lease/udp-5min"]; tcp.Metrics != nil && udp.Metrics != nil {
		if udp.Metrics["first-try %"] >= tcp.Metrics["first-try %"] {
			bad = append(bad, "UDP-lease routes not worse than TCP-lease")
		}
	}
	if p, r := byKey["nat-traversal/punching (default)"], byKey["nat-traversal/relay-only"]; p.Metrics != nil && r.Metrics != nil {
		if p.Metrics["N-N directs/node"] <= r.Metrics["N-N directs/node"] {
			bad = append(bad, "punching does not create more direct N↔N associations")
		}
		if p.Metrics["punches"] == 0 || r.Metrics["punches"] != 0 {
			bad = append(bad, "punch accounting inconsistent across variants")
		}
	}
	if plain, capped := byKey["view-bias/min-quota only"], byKey["view-bias/min-quota + cap"]; plain.Metrics != nil && capped.Metrics != nil {
		if capped.Metrics["quota-ok %"] < 50 {
			bad = append(bad, "cap variant fails the quota outright")
		}
	}
	if m2, m3 := byKey["mix-count/2 mixes"], byKey["mix-count/3 mixes"]; m2.Metrics != nil && m3.Metrics != nil {
		if m3.Metrics["first-try %"] < 50 {
			bad = append(bad, "3-mix paths mostly fail")
		}
	}
	base := byKey["faults/none (baseline)"]
	dup := byKey["faults/dup 5% + reorder"]
	burst := byKey["faults/burst loss"]
	if base.Metrics != nil && dup.Metrics != nil && burst.Metrics != nil {
		for _, r := range []AblationRow{base, dup, burst} {
			if r.Metrics["dup deliveries"] != 0 {
				bad = append(bad, "duplicate application delivery under faults/"+r.Variant)
			}
		}
		if dup.Metrics["ok %"] < 60 {
			bad = append(bad, "route success collapses under duplication+reordering")
		}
		if burst.Metrics["ok %"] < 50 {
			bad = append(bad, "route success collapses under burst loss")
		}
		if dup.Metrics["dups suppressed"] == 0 {
			bad = append(bad, "duplication variant suppressed no duplicate forwards")
		}
		if base.Metrics["dups suppressed"] != 0 {
			bad = append(bad, "baseline reports suppressed duplicates without a fault model")
		}
	}
	return bad
}

// wclTotals sums the route counters of every live node's WCL: routes
// attempted, first-try and any successes, and duplicates suppressed.
func wclTotals(w *sim.World) (routes, first, ok, suppressed uint64) {
	for _, n := range w.Live() {
		if n.WCL == nil {
			continue
		}
		s := n.WCL.Stats()
		routes += s.FirstTrySuccess + s.AltSuccess + s.Failed
		first += s.FirstTrySuccess
		ok += s.FirstTrySuccess + s.AltSuccess
		suppressed += s.DupForwards + s.DupDeliveries
	}
	return routes, first, ok, suppressed
}

// measureRoutes runs w for d and returns the route counters' growth
// over that window.
func measureRoutes(w *sim.World, d time.Duration) (routes, first, ok, suppressed float64) {
	r0, f0, o0, s0 := wclTotals(w)
	w.Sim.RunFor(d)
	r1, f1, o1, s1 := wclTotals(w)
	return float64(r1 - r0), float64(f1 - f0), float64(o1 - o0), float64(s1 - s0)
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}
