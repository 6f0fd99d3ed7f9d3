package exp

import (
	"fmt"
	"io"
	"slices"
	"time"

	"whisper/internal/crypt"
	"whisper/internal/sim"
	"whisper/internal/stats"
	"whisper/internal/wcl"
)

// circuitConfig is the circuit-vs-one-shot comparison: the same
// confidential stream sent once over per-message onion routes (the
// paper's WCL) and once over an established circuit, measuring
// source-side crypto CPU. The circuit leg includes its setup cost, so
// the reported per-message figure is the amortized one at Messages
// messages per circuit.
type circuitConfig struct {
	Seed     int64
	N        int
	Messages int // per leg
}

// newCircuit runs 300 nodes and 100 messages per leg.
func newCircuit(p Params) circuitConfig {
	return circuitConfig{Seed: p.Seed, N: p.n(300), Messages: 100}
}

// circuitLeg is the measured cost of one leg of the comparison.
type circuitLeg struct {
	Label     string
	Delivered int
	SourceCPU time.Duration // source-side crypto CPU over the leg, priced per operation
	PerMsg    time.Duration // amortized per message
	RSAEncs   uint64        // source-side RSA encryptions over the leg
	AESOps    uint64        // source-side symmetric operations

	msgs []crypt.CPUMeter // each message's source meter delta
}

// circuitResult is the full comparison plus the steady-state claim:
// once established, Circuit.Send performs zero RSA operations.
type circuitResult struct {
	Messages  int
	OneShot   circuitLeg
	Circuit   circuitLeg
	CPURatio  float64 // one-shot / circuit per-message source CPU
	SteadyRSA uint64  // source RSA ops after establishment (want 0)
}

// expDest assembles WCL destination info for target the way the PPSS
// would: the target's key plus helper P-nodes from its backlog.
func expDest(w *sim.World, target *sim.Node, maxHelpers int) wcl.Dest {
	d := wcl.Dest{ID: target.ID(), Key: target.Nylon.Identity().Public()}
	for _, e := range target.WCL.Backlog().Publics() {
		h := w.Get(e.Desc.ID)
		if h == nil {
			continue
		}
		d.Helpers = append(d.Helpers, wcl.Helper{
			ID:       h.ID(),
			Endpoint: h.Nylon.Addr(),
			Key:      h.Nylon.Identity().Public(),
		})
		if len(d.Helpers) >= maxHelpers {
			break
		}
	}
	return d
}

// run runs both legs on one converged world: a NATted source streams
// Messages confidential payloads to a NATted destination, first as
// independent one-shot onion routes, then over a WCL circuit. Only the
// source's own CPU meter is read, and the world runs without PPSS
// gossip, so the deltas isolate exactly the send-path crypto.
func (cfg circuitConfig) run() (circuitResult, error) {
	w, err := newWorld("circuit", sim.Options{Seed: cfg.Seed, N: cfg.N, WCL: &wcl.Config{MinPublic: 3}})
	if err != nil {
		return circuitResult{}, err
	}
	w.StartAll()
	w.Sim.RunUntil(5 * time.Minute)

	natted := w.LiveNatted()
	if len(natted) < 2 {
		return circuitResult{}, fmt.Errorf("only %d NATted nodes converged", len(natted))
	}
	src, dst := natted[0], natted[1]
	payload := []byte("circuit-vs-oneshot-probe-payload")

	res := circuitResult{Messages: cfg.Messages}

	// leg sends the messages one per 2 s, except that the first gets
	// settle to complete, after which afterFirst runs. It returns each
	// message's source meter delta in msgs, the last one's including
	// the drain.
	leg := func(label string, send func(wcl.Dest, []byte, func(wcl.Result)), settle time.Duration, afterFirst func()) circuitLeg {
		l := circuitLeg{Label: label, msgs: make([]crypt.CPUMeter, cfg.Messages)}
		for i := range l.msgs {
			before := *src.WCL.CPU()
			send(expDest(w, dst, 3), payload, func(r wcl.Result) {
				if r.Outcome != wcl.Failed {
					l.Delivered++
				}
			})
			if i == 0 {
				w.Sim.RunFor(settle)
				afterFirst()
			} else {
				w.Sim.RunFor(2 * time.Second)
			}
			if i == cfg.Messages-1 {
				w.Sim.RunFor(30 * time.Second) // drain acknowledgements
			}
			l.msgs[i] = cpuSince(*src.WCL.CPU(), before)
			l.RSAEncs += l.msgs[i].RSAEncs
			l.AESOps += l.msgs[i].AESOps
		}
		return l
	}

	res.OneShot = leg("one-shot onion", src.WCL.Send, 2*time.Second, func() {})

	// The circuit leg: the first send carries the setup onion (that RSA
	// cost is inside the leg total and therefore amortized); once it
	// has had 10 s for setup and the first cell's round trip, every
	// further cell must be RSA-free on the source.
	established := false
	res.Circuit = leg("circuit", src.WCL.SendCircuit, 10*time.Second, func() {
		established = src.WCL.HasCircuit(dst.ID())
	})
	if established {
		for _, d := range res.Circuit.msgs[1:] {
			res.SteadyRSA += d.RSAEncs + d.RSADecs + d.Signs + d.Verifys
		}
	} else {
		res.SteadyRSA = ^uint64(0) // establishment failed; shape check reports it
	}

	// Each message is charged its operation counts at the run's median
	// host time per operation, not its own timings: a leg's total is
	// small (60 steady cells take about 30 µs), so one stall of the host
	// thread inside a timed operation would decide the ratio. On a loaded
	// 2-vCPU host, stalls of 0.5 to 5 ms were seen in the AES time of the
	// circuit's setup message. AES is priced apart for messages that
	// built an onion and for those that only sealed cells; RSA operations
	// other than encryptions, which no source performs today, count as
	// timed.
	var rsaEnc []time.Duration
	var aesOp [2][]time.Duration // by min(RSAEncs, 1)
	for _, m := range append(res.OneShot.msgs, res.Circuit.msgs...) {
		if m.RSAEncs > 0 && !otherRSA(m) {
			rsaEnc = append(rsaEnc, m.RSA/time.Duration(m.RSAEncs))
		}
		if m.AESOps > 0 {
			aesOp[min(m.RSAEncs, 1)] = append(aesOp[min(m.RSAEncs, 1)], m.AES/time.Duration(m.AESOps))
		}
	}
	rsa, aes := median(rsaEnc), [2]time.Duration{median(aesOp[0]), median(aesOp[1])}
	for _, l := range []*circuitLeg{&res.OneShot, &res.Circuit} {
		for _, m := range l.msgs {
			l.SourceCPU += time.Duration(m.AESOps) * aes[min(m.RSAEncs, 1)]
			if otherRSA(m) {
				l.SourceCPU += m.RSA
			} else {
				l.SourceCPU += time.Duration(m.RSAEncs) * rsa
			}
		}
		l.PerMsg = l.SourceCPU / time.Duration(cfg.Messages)
	}
	if res.Circuit.PerMsg > 0 {
		res.CPURatio = float64(res.OneShot.PerMsg) / float64(res.Circuit.PerMsg)
	}
	return res, nil
}

func otherRSA(m crypt.CPUMeter) bool { return m.RSADecs+m.Signs+m.Verifys > 0 }

// median returns the middle of ds (the upper one of an even count), or
// 0 for none. It sorts ds.
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// print renders the comparison's virtual line: the RSA operations of
// the circuit's steady state.
func (res circuitResult) print(out io.Writer) {
	fmt.Fprintf(out, "== Circuits: steady-state cost vs one-shot onion routes (%d messages) ==\n", res.Messages)
	fmt.Fprintf(out, "source RSA operations after establishment: %d (want 0)\n", res.SteadyRSA)
}

// printHost renders the legs, whose CPU columns are the host's.
func (res circuitResult) printHost(out io.Writer) {
	tb := stats.NewTable("leg", "delivered", "source CPU", "per message", "RSA encs", "sym ops")
	for _, l := range []circuitLeg{res.OneShot, res.Circuit} {
		tb.Row(l.Label,
			fmt.Sprintf("%d/%d", l.Delivered, res.Messages),
			fmt.Sprintf("%.2f ms", float64(l.SourceCPU.Microseconds())/1000),
			fmt.Sprintf("%.1f µs", float64(l.PerMsg.Nanoseconds())/1000),
			fmt.Sprint(l.RSAEncs),
			fmt.Sprint(l.AESOps))
	}
	fmt.Fprint(out, tb.String())
	fmt.Fprintf(out, "per-message source CPU ratio (one-shot / circuit): %.1fx\n", res.CPURatio)
}

// check verifies the claims: circuits deliver, steady state is
// RSA-free, and the amortized per-message source CPU is at least 5x
// below the one-shot path.
func (res circuitResult) check() []string {
	var bad []string
	if res.OneShot.Delivered < res.Messages*9/10 {
		bad = append(bad, fmt.Sprintf("one-shot leg delivered %d/%d", res.OneShot.Delivered, res.Messages))
	}
	if res.Circuit.Delivered < res.Messages*9/10 {
		bad = append(bad, fmt.Sprintf("circuit leg delivered %d/%d", res.Circuit.Delivered, res.Messages))
	}
	if res.SteadyRSA != 0 {
		bad = append(bad, fmt.Sprintf("steady-state circuit sends performed %d RSA operations, want 0", res.SteadyRSA))
	}
	if res.CPURatio < 5 {
		bad = append(bad, fmt.Sprintf("circuit per-message source CPU only %.1fx below one-shot, want >= 5x", res.CPURatio))
	}
	if res.Circuit.RSAEncs >= res.OneShot.RSAEncs {
		bad = append(bad, fmt.Sprintf("circuit leg paid %d RSA encryptions vs %d one-shot — setup not amortized",
			res.Circuit.RSAEncs, res.OneShot.RSAEncs))
	}
	return bad
}
