package wcl

import (
	"testing"
	"time"
)

// TestCircuitRelayTableBounded: the relay-side table evicts the least
// recently used entry past its bound rather than growing with every
// circuit that ever crossed, expires entries circuitTTL after their
// last use, and its gauge follows its size.
func TestCircuitRelayTableBounded(t *testing.T) {
	const bound = 4
	var gauge int64
	tab := newCircTable(bound, &gauge)
	at := func(s int) time.Duration { return time.Duration(s) * time.Second }
	check := func(when string) {
		t.Helper()
		if tab.size() > bound {
			t.Fatalf("%s: %d entries, bound is %d", when, tab.size(), bound)
		}
		if gauge != int64(tab.size()) {
			t.Fatalf("%s: gauge %d, table holds %d", when, gauge, tab.size())
		}
	}

	for id := uint64(1); id <= bound; id++ {
		tab.put(&relayCircuit{id: id}, at(int(id)))
	}
	check("filled")
	if tab.get(1, at(5)) == nil {
		t.Fatal("entry 1 missing before the bound was reached")
	}
	tab.put(&relayCircuit{id: 5}, at(5))
	check("one past the bound")
	if tab.get(2, at(5)) != nil {
		t.Fatal("the least recently used entry (2) survived past the bound")
	}
	if tab.get(1, at(5)) == nil {
		t.Fatal("entry 1, used most recently, was evicted instead of 2")
	}

	for id := uint64(6); id <= 12; id++ {
		tab.put(&relayCircuit{id: id}, at(int(id)))
		check("spread")
	}
	for id := uint64(9); id <= 12; id++ {
		if tab.get(id, at(12)) == nil {
			t.Fatalf("recent entry %d evicted", id)
		}
	}

	if tab.get(12, at(12)+circuitTTL+time.Second) != nil {
		t.Fatal("entry outlived circuitTTL after its last use")
	}
	check("expired")
}
