package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"whisper/internal/identity"
)

// smokeWorkloads shrinks every workload to a world the whole suite runs
// in a few seconds: 1/50 of the ops on 60 nodes (gossip-scale: 2,000
// nodes) with a short warm-up and shared, cached keys.
func smokeWorkloads() []*workload {
	pool := identity.TestPool(16)
	var out []*workload
	for _, wl := range workloads {
		wl = wl.scaled(0.02)
		wl.Pool = pool
		if !wl.Gossip {
			wl.N = 60
			wl.Warmup, wl.Settle = 2*time.Minute, 3*time.Minute
		}
		out = append(out, wl)
	}
	return out
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics asserts that res holds exactly the metrics of defs, each
// with a legal name and a finite value.
func checkMetrics(t *testing.T, res *runResult, defs []metricDef) {
	t.Helper()
	want := make(map[string]bool, len(defs))
	for _, d := range defs {
		if want[d.Name] {
			t.Errorf("metric %s is defined twice", d.Name)
		}
		want[d.Name] = true
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q is not a legal name", d.Name)
		}
		v, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", res.Workload, d.Name)
		} else if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: metric %s = %v", res.Workload, d.Name, v)
		}
	}
	for name := range res.Metrics {
		if !want[name] {
			t.Errorf("%s: emitted metric %s is not defined", res.Workload, name)
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	direct := map[string]float64{}
	if err := runDirect(direct, 1); err != nil {
		t.Fatal(err)
	}
	for _, wl := range smokeWorkloads() {
		plain, err := run(wl, 7, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !plain.Correct {
			t.Errorf("%s: correctness gate: %v", wl.Name, plain.Problems)
		}
		checkMetrics(t, plain, endToEnd)
		for _, d := range endToEnd {
			if plain.Metrics[d.Name] == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", wl.Name, d.Name)
			}
		}
		if plain.Ops.Attempted == 0 || plain.Ops.Attempted != plain.Ops.Succeeded+plain.Ops.Failed {
			t.Errorf("%s: attempted %d, succeeded %d, failed %d", wl.Name, plain.Ops.Attempted, plain.Ops.Succeeded, plain.Ops.Failed)
		}

		traced, err := run(wl, 7, 0, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		if !traced.Correct {
			t.Errorf("%s traced: correctness gate: %v", wl.Name, traced.Problems)
		}
		for k, v := range direct {
			traced.Metrics[k] = v
		}
		checkMetrics(t, traced, perLayer())
		if traced.Fingerprint != plain.Fingerprint {
			t.Errorf("%s: tracing changed the schedule:\n plain  %s\n traced %s", wl.Name, plain.Fingerprint, traced.Fingerprint)
		}
		// A renumbered nylon relay or app tag would silently charge
		// WCL traffic to nylon, or the reverse.
		if wl.Gossip && (traced.Metrics["netem.bytes_nylon"] == 0 || traced.Metrics["netem.bytes_wcl"] != 0) {
			t.Errorf("%s: the tap saw %v gossip and %v WCL bytes", wl.Name, traced.Metrics["netem.bytes_nylon"], traced.Metrics["netem.bytes_wcl"])
		}
		if !wl.Gossip && traced.Metrics["netem.bytes_wcl"] == 0 {
			t.Errorf("%s: the tap saw no WCL bytes", wl.Name)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the driver
// reads, in step with the tables the program prints from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkSpec
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if want := spec(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the program's tables; regenerate it with: go run ./bench -spec > BENCHMARK.json")
	}
	if n := len(got.PerLayer); n > 128 {
		t.Errorf("%d per-layer metrics, the cap is 128", n)
	}
	for _, wl := range workloads {
		if len(wl.Why) > 200 {
			t.Errorf("%s: why has %d characters, the limit is 200", wl.Name, len(wl.Why))
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"whisper/internal/simnet.(*Sim).run", "whisper/internal/simnet.(*Sharded).runWindow"}, "simnet"},
		{[]string{"container/heap.down", "container/heap.Pop", "whisper/internal/simnet.(*Sim).run"}, "simnet"},
		{[]string{"whisper/internal/transport/simnet.(*Transport).Send", "whisper/internal/nylon.(*Node).send"}, "transport"},
		{[]string{"whisper/internal/transport.(*Meter).AddUp"}, "transport"},
		{[]string{"whisper/internal/netem.(*Network).Send"}, "netem"},
		{[]string{"whisper/internal/nat.(*Device).Send"}, "nat"},
		{[]string{"whisper/internal/pss.Select[go.shape.struct {...}]"}, "pss"},
		{[]string{"whisper/internal/nylon.(*Node).dispatch"}, "nylon"},
		{[]string{"whisper/internal/wire.(*Writer).U64"}, "wire"},
		{[]string{"whisper/internal/dedup.(*Seen[go.shape.uint64]).Add"}, "dedup"},
		{[]string{"whisper/internal/wcl.(*WCL).handleCircData"}, "wcl"},
		{[]string{"whisper/internal/ppss.(*Instance).handleApp"}, "ppss"},
		{[]string{"whisper/internal/crypt.SealSym"}, "crypt"},
		{[]string{"crypto/internal/fips140/bigmod.(*Nat).montgomeryMul", "crypto/rsa.decrypt"}, "crypt"},
		{[]string{"math/big.nat.expNN"}, "crypt"},
		{[]string{"whisper/internal/obs.(*Counter).Add"}, "obs"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.memmove", "runtime.gcAssistAlloc1", "runtime.mallocgc", "whisper/internal/wcl.(*WCL).sendCell"}, "runtime.gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.makeslice", "whisper/internal/wire.NewWriter"}, "runtime.malloc"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "whisper/internal/crypt.SealSym"}, "runtime.malloc"},
		{[]string{"runtime.memmove", "whisper/internal/wcl.(*streamSend).fragData"}, "runtime.other"},
		{[]string{"runtime.mapaccess2_fast64", "whisper/internal/netem.(*Network).Inject"}, "runtime.other"},
		{[]string{"internal/runtime/maps.(*Map).getWithKey"}, "runtime.other"},
		{[]string{"whisper/bench.(*load).receive"}, "other"},
		{[]string{"whisper/internal/keyss.(*Store).Get"}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for _, e := range layerPrefixes {
		if !known[e.layer] {
			t.Errorf("prefix %q maps to unknown layer %q", e.prefix, e.layer)
		}
	}
}

// TestQuartilesMatchPython pins the spread to the driver's definition:
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if want := [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
	if got := quartiles([]float64{1, 3}); got != [3]float64{0.5, 2, 3.5} {
		t.Errorf("quartiles of two values = %v", got)
	}
}
