// Top-level benchmarks: one sub-benchmark per whisper-exp experiment
// (reduced scale; the command runs them at paper scale), plus ablation
// benches for the design choices DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem .
package whisper_test

import (
	"testing"
	"time"

	"whisper/internal/crypt"
	"whisper/internal/exp"
	"whisper/internal/identity"
	"whisper/internal/nat"
	"whisper/internal/nylon"
	"whisper/internal/sim"
	"whisper/internal/wcl"
)

// BenchmarkExperiments runs every whisper-exp table entry (the paper's
// figures and tables, the ablations and the scale run) at -scale 0.2,
// the scale of CI's shape gate and above every entry's MinScale, and
// fails on any shape violation.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range exp.Experiments() {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := e.Run(exp.Params{Seed: 2011, Scale: 0.2, Parallel: 1, Shards: 8})
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Violations) != 0 {
					b.Fatalf("shape violations: %v", rep.Violations)
				}
			}
		})
	}
}

// --- Ablations -------------------------------------------------------

// benchWorld builds a PSS-only world and runs it to convergence,
// reporting total shuffles as the throughput proxy.
func benchWorld(b *testing.B, cfg nylon.Config, lease time.Duration) (completed, relayed uint64) {
	w, err := sim.NewWorld(sim.Options{
		Seed: 999, N: 200, NATRatio: 0.7,
		KeyPool:  identity.TestPool(64),
		Nylon:    cfg,
		NATLease: lease,
	})
	if err != nil {
		b.Fatal(err)
	}
	w.StartAll()
	w.Sim.RunUntil(8 * time.Minute)
	for _, n := range w.Live() {
		completed += n.Nylon.Stats().ShufflesCompleted
		relayed += n.Nylon.Stats().RelaysForwarded
	}
	return completed, relayed
}

// BenchmarkAblationUnbiasedPSS is the Π=0 baseline of Fig 5.
func BenchmarkAblationUnbiasedPSS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if c, _ := benchWorld(b, nylon.Config{MinPublic: 0}, 0); c == 0 {
			b.Fatal("no shuffles")
		}
	}
}

// BenchmarkAblationBiasedPSS is the Π=3 variant.
func BenchmarkAblationBiasedPSS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if c, _ := benchWorld(b, nylon.Config{MinPublic: 3}, 0); c == 0 {
			b.Fatal("no shuffles")
		}
	}
}

// BenchmarkAblationRelayOnly disables hole punching: all N↔N traffic
// rides relays (the Leitao et al. alternative discussed in §VI).
func BenchmarkAblationRelayOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, relayed := benchWorld(b, nylon.Config{DisablePunch: true}, 0)
		if c == 0 || relayed == 0 {
			b.Fatal("relay-only run did not relay")
		}
		b.ReportMetric(float64(relayed)/float64(c), "relays/shuffle")
	}
}

// BenchmarkAblationPunching is the default traversal mix.
func BenchmarkAblationPunching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, relayed := benchWorld(b, nylon.Config{}, 0)
		if c == 0 {
			b.Fatal("no shuffles")
		}
		b.ReportMetric(float64(relayed)/float64(c), "relays/shuffle")
	}
}

// BenchmarkAblationUDPLease runs the PSS with 5-minute UDP-style NAT
// association rules instead of the default TCP-style 24 h (the paper's
// setting); route warmth decays much faster.
func BenchmarkAblationUDPLease(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if c, _ := benchWorld(b, nylon.Config{ContactTTL: 4 * time.Minute}, nat.UDPLease); c == 0 {
			b.Fatal("no shuffles")
		}
	}
}

// BenchmarkOnionPathLength measures layered encryption cost as the mix
// count grows (§III footnote 2: f mixes tolerate f−1 colluders).
func BenchmarkOnionPathLength(b *testing.B) {
	keys := identity.TestKeys(6)
	for _, hops := range []int{2, 3, 4, 5} {
		hops := hops
		b.Run(benchName("hops", hops), func(b *testing.B) {
			var hs []crypt.Hop
			for i := 0; i < hops; i++ {
				hs = append(hs, crypt.Hop{Pub: keys[i].Public(), Addr: []byte{byte(i)}})
			}
			k, _ := crypt.NewSymKey()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				onion, err := crypt.BuildOnion(nil, hs, k)
				if err != nil {
					b.Fatal(err)
				}
				blob := onion
				for h := 0; h < hops; h++ {
					_, inner, _, err := crypt.Peel(nil, keys[h], blob)
					if err != nil {
						b.Fatal(err)
					}
					blob = inner
				}
			}
		})
	}
}

func benchName(prefix string, n int) string {
	return prefix + "=" + string(rune('0'+n))
}

// BenchmarkEndToEndConfidentialSend measures one full WCL send
// (onion build, three hops, content decryption, end-to-end ack) on a
// converged network, in virtual protocol terms per wall-clock second.
func BenchmarkEndToEndConfidentialSend(b *testing.B) {
	w, err := sim.NewWorld(sim.Options{
		Seed: 1234, N: 150, NATRatio: 0.7,
		KeyPool: identity.TestPool(64),
		WCL:     &wcl.Config{MinPublic: 3},
	})
	if err != nil {
		b.Fatal(err)
	}
	w.StartAll()
	w.Sim.RunUntil(5 * time.Minute)
	natted := w.LiveNatted()
	src, dst := natted[0], natted[1]
	dst.WCL.OnReceive = func([]byte) {}
	dest := wcl.Dest{ID: dst.ID(), Key: dst.Nylon.Identity().Public()}
	for _, e := range dst.WCL.Backlog().Publics() {
		h := w.Get(e.Desc.ID)
		if h == nil {
			continue
		}
		dest.Helpers = append(dest.Helpers, wcl.Helper{
			ID: h.ID(), Endpoint: h.Nylon.Addr(), Key: h.Nylon.Identity().Public(),
		})
		if len(dest.Helpers) == 3 {
			break
		}
	}
	if len(dest.Helpers) == 0 {
		b.Fatal("destination not ready")
	}
	payload := make([]byte, 1024)
	b.ResetTimer()
	b.ReportAllocs()
	ok := 0
	for i := 0; i < b.N; i++ {
		src.WCL.Send(dest, payload, func(r wcl.Result) {
			if r.Outcome != wcl.Failed {
				ok++
			}
		})
		w.Sim.RunFor(2 * time.Second)
	}
	w.Sim.RunFor(30 * time.Second)
	if ok == 0 {
		b.Fatal("no send succeeded")
	}
}
