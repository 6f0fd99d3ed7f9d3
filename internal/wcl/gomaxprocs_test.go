package wcl_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"whisper/internal/wcl"
)

// TestOneShotVirtualResultsIndependentOfGOMAXPROCS runs the same small
// one-shot world at GOMAXPROCS 1, where every onion layer is unwrapped
// by the hop that opens it, and at 4, where spare cores unwrap layers
// as they are sealed (crypt's speculative unwrap). Every virtual
// outcome, and the RSA work each node is charged, must be identical.
func TestOneShotVirtualResultsIndependentOfGOMAXPROCS(t *testing.T) {
	run := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		w := buildWCLWorld(t, 33, 80)
		var sb strings.Builder
		for _, n := range w.Live() {
			id := n.ID()
			n.WCL.OnReceive = func(p []byte) {
				fmt.Fprintf(&sb, "deliver %v %q at %v\n", id, p, w.Sim.Now())
			}
		}
		natted := w.LiveNatted()
		for i := range 24 {
			s, d := natted[i%len(natted)], natted[(i*5+3)%len(natted)]
			if s == d {
				continue
			}
			s.WCL.Send(destFor(w, d, 3), []byte{byte(i)}, func(r wcl.Result) {
				fmt.Fprintf(&sb, "result %d %v attempts=%d mixes=%d elapsed=%v\n",
					i, r.Outcome, r.Attempts, r.MixesTried, r.Elapsed)
			})
		}
		w.Sim.RunFor(2 * time.Minute)
		sent, dropped := w.NetStats()
		fmt.Fprintf(&sb, "events=%d sent=%d dropped=%d\n", w.Executed(), sent, dropped)
		for _, n := range w.Live() {
			m := n.WCL.CPU()
			fmt.Fprintf(&sb, "%v rsa enc=%d dec=%d\n", n.ID(), m.RSAEncs, m.RSADecs)
		}
		return sb.String()
	}
	one, four := run(1), run(4)
	if !strings.Contains(one, "deliver") || !strings.Contains(one, "result") {
		t.Fatal("nothing sent or delivered")
	}
	if one != four {
		t.Fatalf("GOMAXPROCS 1 and 4 differ:\n--- 1 ---\n%s--- 4 ---\n%s", one, four)
	}
}
