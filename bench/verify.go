package main

import (
	"fmt"
	"io"

	"whisper/internal/identity"
)

// scaled returns a copy of w shrunk by f for -verify and the smoke test:
// messaging workloads keep their slice count and run f times the ops,
// gossip-scale keeps its virtual time and simulates f times the nodes.
func (w *workload) scaled(f float64) *workload {
	c := *w
	if c.Gossip {
		c.N = max(2000, int(float64(c.N)*f))
		return &c
	}
	slices := c.FixedOps / c.SliceOps
	c.SliceOps = max(1, int(float64(c.SliceOps)*f))
	c.FixedOps = slices * c.SliceOps
	return &c
}

// verifyMain is the determinism self-check: every workload, shrunk by
// -scale, runs twice in this one process. Go randomizes map iteration
// per range statement, so an ordering bug in the harness or in a layer
// shows up as two different fingerprints; and because every virtual
// metric must repeat exactly, a later diff in them means the protocol
// changed, not that the host got faster.
func verifyMain(o options, out io.Writer) error {
	wls := workloads
	if o.workload != "" {
		wl := findWorkload(o.workload)
		if wl == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		wls = []*workload{wl}
	}
	// One key pool for all worlds: key material never influences the
	// schedule, and generating it is most of a small world's set-up.
	pool, err := identity.NewPool(64, 0)
	if err != nil {
		return err
	}
	bad := 0
	for _, wl := range wls {
		wl = wl.scaled(o.scale)
		wl.Pool = pool
		var first *runResult
		for i := 0; i < 2; i++ {
			res, err := run(wl, o.seed, 0, nil)
			if err != nil {
				return err
			}
			for _, p := range res.Problems {
				fmt.Fprintf(out, "%s: INCORRECT: %s\n", wl.Name, p)
				bad++
			}
			if first == nil {
				first = res
				fmt.Fprintf(out, "%s: %s\n", wl.Name, res.Fingerprint)
				continue
			}
			if res.Fingerprint != first.Fingerprint {
				fmt.Fprintf(out, "%s: NOT DETERMINISTIC: second run: %s\n", wl.Name, res.Fingerprint)
				bad++
			}
			for _, d := range endToEnd {
				if a, b := first.Metrics[d.Name], res.Metrics[d.Name]; d.Clock == "virtual" && a != b {
					fmt.Fprintf(out, "%s: NOT DETERMINISTIC: %s = %v, then %v\n", wl.Name, d.Name, a, b)
					bad++
				}
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("verify: %d problems", bad)
	}
	fmt.Fprintf(out, "verify: %d workloads ran twice at scale %g, seed %d: fingerprints and virtual metrics identical\n", len(wls), o.scale, o.seed)
	return nil
}
