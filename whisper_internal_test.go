package whisper

import (
	"testing"

	"whisper/internal/crypt"
)

// TestKeyPoolSizeBoundsDistinctKeys: Options.KeyPoolSize is the bound on
// distinct node keys, also below the default of 64.
func TestKeyPoolSizeBoundsDistinctKeys(t *testing.T) {
	net, err := NewNetwork(Options{Nodes: 12, Seed: 3, KeyPoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	keys := map[[8]byte]bool{}
	for _, sn := range net.w.Live() {
		keys[crypt.KeyFingerprint(sn.Nylon.Identity().Public())] = true
	}
	if len(keys) == 0 || len(keys) > 2 {
		t.Fatalf("%d distinct node keys with KeyPoolSize 2, want at most 2", len(keys))
	}
}
