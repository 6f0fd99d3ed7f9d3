// Package wiretest holds the test helper shared by every package that
// encodes wire messages.
package wiretest

import "testing"

// Encoder is one message encoder called on a workload-shaped input.
type Encoder struct {
	Name   string
	Encode func() []byte
}

// CheckSizeHints pins the size hint of every encoder: the message must
// cost exactly one allocation (a short hint overflows and reallocates)
// and end within max(64 B, 25 %) of its buffer's capacity (a padded
// hint wastes what it reserves). Both failure modes were found on the
// message path by profile; this keeps them from coming back.
func CheckSizeHints(t *testing.T, encoders []Encoder) {
	t.Helper()
	for _, e := range encoders {
		out := e.Encode()
		if len(out) == 0 {
			t.Errorf("%s: encoded nothing", e.Name)
			continue
		}
		slack, budget := cap(out)-len(out), len(out)/4
		if budget < 64 {
			budget = 64
		}
		if slack > budget {
			t.Errorf("%s: %d bytes encoded into a buffer with %d to spare (budget %d): padded size hint", e.Name, len(out), slack, budget)
		}
		if RaceEnabled {
			continue
		}
		if allocs := testing.AllocsPerRun(50, func() { e.Encode() }); allocs != 1 {
			t.Errorf("%s: %.0f allocations per message, want 1 (short size hint, or an escaping temporary)", e.Name, allocs)
		}
	}
}
