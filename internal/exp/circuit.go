package exp

import (
	"fmt"
	"io"
	"time"

	"whisper/internal/sim"
	"whisper/internal/stats"
	"whisper/internal/wcl"
)

// CircuitConfig parameterizes the circuit-vs-one-shot comparison: the
// same confidential stream sent once over per-message onion routes
// (the paper's WCL) and once over an established circuit, measuring
// source-side crypto CPU. The circuit leg includes its setup cost, so
// the reported per-message figure is the amortized one at
// Messages messages per circuit.
type CircuitConfig struct {
	Seed     int64
	N        int // default 300
	Messages int // messages per leg (default 100, one rotation budget)
}

func (c CircuitConfig) withDefaults() CircuitConfig {
	if c.N == 0 {
		c.N = 300
	}
	if c.Messages == 0 {
		c.Messages = 100
	}
	return c
}

// CircuitLeg is the measured cost of one leg of the comparison.
type CircuitLeg struct {
	Label     string
	Delivered int
	SourceCPU time.Duration // total source-side crypto CPU over the leg
	PerMsg    time.Duration // amortized per message
	RSAEncs   uint64        // source-side RSA encryptions over the leg
	AESOps    uint64        // source-side symmetric operations
}

// CircuitResult is the full comparison plus the steady-state claim:
// once established, Circuit.Send performs zero RSA operations.
type CircuitResult struct {
	Messages  int
	OneShot   CircuitLeg
	Circuit   CircuitLeg
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

// Circuit runs both legs on one converged world: a NATted source
// streams Messages confidential payloads to a NATted destination,
// first as independent one-shot onion routes, then over a WCL circuit.
// Only the source's own CPU meter is read, and the world runs without
// PPSS gossip, so the deltas isolate exactly the send-path crypto.
func Circuit(cfg CircuitConfig) (CircuitResult, error) {
	cfg = cfg.withDefaults()
	w, err := sim.NewWorld(sim.Options{
		Seed:     cfg.Seed,
		N:        cfg.N,
		NATRatio: 0.7,
		KeyPool:  keyPool,
		WCL:      &wcl.Config{MinPublic: 3},
		Obs:      worldObs("circuit"),
	})
	if err != nil {
		return CircuitResult{}, err
	}
	w.StartAll()
	w.Sim.RunUntil(5 * time.Minute)

	natted := w.LiveNatted()
	if len(natted) < 2 {
		return CircuitResult{}, fmt.Errorf("only %d NATted nodes converged", len(natted))
	}
	src, dst := natted[0], natted[1]
	payload := []byte("circuit-vs-oneshot-probe-payload")

	res := CircuitResult{Messages: cfg.Messages}

	leg := func(label string, send func(wcl.Dest, []byte, func(wcl.Result))) CircuitLeg {
		l := CircuitLeg{Label: label}
		before := *src.WCL.CPU()
		for i := 0; i < cfg.Messages; i++ {
			send(expDest(w, dst, 3), payload, func(r wcl.Result) {
				if r.Outcome != wcl.Failed {
					l.Delivered++
				}
			})
			w.Sim.RunFor(2 * time.Second)
		}
		w.Sim.RunFor(30 * time.Second) // drain acknowledgements
		cur := *src.WCL.CPU()
		l.SourceCPU = (cur.AES - before.AES) + (cur.RSA - before.RSA)
		l.PerMsg = l.SourceCPU / time.Duration(cfg.Messages)
		l.RSAEncs = cur.RSAEncs - before.RSAEncs
		l.AESOps = cur.AESOps - before.AESOps
		return l
	}

	res.OneShot = leg("one-shot onion", src.WCL.Send)

	// The circuit leg: the first send carries the setup onion (that RSA
	// cost is inside the leg total and therefore amortized); after it
	// completes, every further cell must be RSA-free on the source.
	circLeg := CircuitLeg{Label: "circuit"}
	before := *src.WCL.CPU()
	send := func() {
		src.WCL.SendCircuit(expDest(w, dst, 3), payload, func(r wcl.Result) {
			if r.Outcome != wcl.Failed {
				circLeg.Delivered++
			}
		})
	}
	send()
	w.Sim.RunFor(10 * time.Second) // setup + first cell round trip
	established := src.WCL.HasCircuit(dst.ID())
	steady := *src.WCL.CPU()
	for i := 1; i < cfg.Messages; i++ {
		send()
		w.Sim.RunFor(2 * time.Second)
	}
	w.Sim.RunFor(30 * time.Second)
	cur := *src.WCL.CPU()
	circLeg.SourceCPU = (cur.AES - before.AES) + (cur.RSA - before.RSA)
	circLeg.PerMsg = circLeg.SourceCPU / time.Duration(cfg.Messages)
	circLeg.RSAEncs = cur.RSAEncs - before.RSAEncs
	circLeg.AESOps = cur.AESOps - before.AESOps
	res.Circuit = circLeg
	if established {
		res.SteadyRSA = (cur.RSAEncs - steady.RSAEncs) + (cur.RSADecs - steady.RSADecs) +
			(cur.Signs - steady.Signs) + (cur.Verifys - steady.Verifys)
	} else {
		res.SteadyRSA = ^uint64(0) // establishment failed; shape check reports it
	}

	if res.Circuit.PerMsg > 0 {
		res.CPURatio = float64(res.OneShot.PerMsg) / float64(res.Circuit.PerMsg)
	}
	return res, nil
}

// PrintCircuit renders the comparison.
func PrintCircuit(out io.Writer, res CircuitResult) {
	fmt.Fprintf(out, "== Circuits: steady-state cost vs one-shot onion routes (%d messages) ==\n", res.Messages)
	tb := stats.NewTable("leg", "delivered", "source CPU", "per message", "RSA encs", "sym ops")
	for _, l := range []CircuitLeg{res.OneShot, res.Circuit} {
		tb.Row(l.Label,
			fmt.Sprintf("%d/%d", l.Delivered, res.Messages),
			fmt.Sprintf("%.2f ms", float64(l.SourceCPU.Microseconds())/1000),
			fmt.Sprintf("%.1f µs", float64(l.PerMsg.Nanoseconds())/1000),
			fmt.Sprint(l.RSAEncs),
			fmt.Sprint(l.AESOps))
	}
	fmt.Fprint(out, tb.String())
	fmt.Fprintf(out, "per-message source CPU ratio (one-shot / circuit): %.1fx\n", res.CPURatio)
	fmt.Fprintf(out, "source RSA operations after establishment: %d (want 0)\n", res.SteadyRSA)
}

// CircuitShapeCheck verifies the tentpole claims: circuits deliver,
// steady state is RSA-free, and the amortized per-message source CPU
// is at least 5x below the one-shot path.
func CircuitShapeCheck(res CircuitResult) []string {
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
