package exp

import (
	"io"
	"slices"
	"strings"
	"testing"
	"time"
)

// The experiment tests run every figure/table at reduced scale and
// assert the paper's qualitative findings (the shape checks) hold.
// They are the cross-module integration tests of the whole repository.
// Each takes its config from the experiment's constructor and sets the
// reduced sizes it runs at.

func TestFig5Shape(t *testing.T) {
	cfg := newFig5(Params{Seed: 61, Scale: 1})
	cfg.N, cfg.Runtime = 250, 6*time.Minute
	res, err := cfg.run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("results = %d", len(res))
	}
	for _, v := range res.check() {
		t.Error(v)
	}
	// Print must produce the CDF series without panicking.
	var sb strings.Builder
	res.print(&sb)
	if !strings.Contains(sb.String(), "in-degree P-nodes (Pi=3)") {
		t.Error("missing CDF series in output")
	}
}

func TestFig6Shape(t *testing.T) {
	cfg := newFig6(Params{Seed: 62, Scale: 1})
	cfg.N, cfg.Warmup, cfg.Measure = 250, 4*time.Minute, 4*time.Minute
	cfg.Ratios, cfg.PiValues, cfg.KeyBlobSize = []float64{0.7}, []int{1, 3}, 512
	rows, err := cfg.run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // unbiased, unbiased+KS, Pi=1+KS, Pi=3+KS
		t.Fatalf("rows = %d", len(rows))
	}
	for _, v := range rows.check() {
		t.Error(v)
	}
	rows.print(io.Discard)
}

// TestFig6CheckInRowOrder pins the order of Fig 6's violations: when
// key sampling fails to raise upload at two ratios, the check lists
// them in row order on every call, not in map order.
func TestFig6CheckInRowOrder(t *testing.T) {
	rows := fig6Rows{
		{Config: "unbiased", NATRatio: 0.8, NUpKB: 2},
		{Config: "unbiased+KS", NATRatio: 0.8, NUpKB: 1},
		{Config: "unbiased", NATRatio: 0.5, NUpKB: 2},
		{Config: "unbiased+KS", NATRatio: 0.5, NUpKB: 2},
	}
	want := []string{
		"ratio 0.8: key sampling did not increase N-node upload",
		"ratio 0.5: key sampling did not increase N-node upload",
	}
	for range 20 {
		if got := rows.check(); !slices.Equal(got, want) {
			t.Fatalf("check() = %q, want %q", got, want)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	cfg := newTable1(Params{Seed: 63, Scale: 1})
	cfg.N, cfg.Groups, cfg.Rates = 250, 5, []float64{0, 5}
	cfg.Warmup, cfg.Window = 8*time.Minute, 8*time.Minute
	cfg.PPSS.KeyBlobSize = 256
	rows, err := cfg.run()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rows.check() {
		t.Error(v)
	}
	if rows[0].SuccessPct < 99 {
		t.Errorf("no-churn success %.1f%%, paper reports 100%%", rows[0].SuccessPct)
	}
	if rows[1].SuccessPct >= rows[0].SuccessPct {
		t.Error("churn did not reduce first-try success")
	}
	rows.print(io.Discard)
}

func TestFig7Shape(t *testing.T) {
	cfg := newFig7(Params{Seed: 64, Scale: 1, Parallel: 1})
	cfg.Beds = []fig7Bed{{cluster, 150}, {planetLab, 150}}
	cfg.Exchanges, cfg.Warmup, cfg.MaxRun = 200, 8*time.Minute, 15*time.Minute
	cfg.PPSS.KeyBlobSize = 256
	results, err := cfg.run()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range results.check() {
		t.Error(v)
	}
	// Environment separation: the cluster is much faster.
	if results[0].RTTMedian*10 > results[1].RTTMedian {
		t.Errorf("cluster rtt %.4fs not ≪ planetlab rtt %.4fs",
			results[0].RTTMedian, results[1].RTTMedian)
	}
	results.print(io.Discard)
	results.printHost(io.Discard)
}

func TestTable2Shape(t *testing.T) {
	cfg := newTable2(Params{Seed: 65, Scale: 1})
	cfg.N, cfg.Cycles, cfg.Warmup = 200, 3, 8*time.Minute
	cfg.PPSS.KeyBlobSize = 256
	res, err := cfg.run()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.check() {
		t.Error(v)
	}
	res.print(io.Discard)
	res.printHost(io.Discard)
}

func TestFig8Shape(t *testing.T) {
	cfg := newFig8(Params{Seed: 66, Scale: 1})
	cfg.N, cfg.Groups, cfg.GroupsPerNode = 100, 24, []int{1, 4}
	cfg.Warmup, cfg.Measure = 6*time.Minute, 6*time.Minute
	cfg.PPSS.KeyBlobSize = 256
	rows, err := cfg.run()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rows.check() {
		t.Error(v)
	}
	// Roughly linear growth: 4 groups should cost noticeably more than 1.
	if rows[1].NUp.P50 < rows[0].NUp.P50*2 {
		t.Errorf("4 groups/node upload (%.3f) not ≫ 1 group/node (%.3f)",
			rows[1].NUp.P50, rows[0].NUp.P50)
	}
	rows.print(io.Discard)
}

func TestFig9Shape(t *testing.T) {
	cfg := newFig9(Params{Seed: 67, Scale: 1})
	cfg.N, cfg.GroupSize, cfg.Queries = 120, 16, 60
	cfg.Warmup, cfg.RingTime = 10*time.Minute, 8*time.Minute
	cfg.PPSS.Cycle, cfg.PPSS.KeyBlobSize = 30*time.Second, 256
	res, err := cfg.run()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.check() {
		t.Error(v)
	}
	res.print(io.Discard)
}

func TestCircuitShape(t *testing.T) {
	cfg := newCircuit(Params{Seed: 69, Scale: 1})
	cfg.N, cfg.Messages = 150, 60
	res, err := cfg.run()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.check() {
		t.Error(v)
	}
	if res.SteadyRSA != 0 {
		t.Errorf("steady-state RSA ops = %d, want 0", res.SteadyRSA)
	}
	var sb strings.Builder
	res.printHost(&sb)
	if !strings.Contains(sb.String(), "per-message source CPU ratio") {
		t.Error("missing ratio line in output")
	}
}

func TestTransferShape(t *testing.T) {
	cfg := newTransfer(Params{Seed: 69, Scale: 1})
	cfg.N, cfg.Messages, cfg.MessageKB = 150, 4, 16
	res, err := cfg.run()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.check() {
		t.Error(v)
	}
	// Same seed, same config: the fingerprint must reproduce exactly.
	again, err := cfg.run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint != again.Fingerprint {
		t.Errorf("fingerprint not deterministic: %016x != %016x", res.Fingerprint, again.Fingerprint)
	}
	var sb strings.Builder
	res.print(&sb)
	if !strings.Contains(sb.String(), "fingerprint:") {
		t.Error("missing fingerprint line in output")
	}
	if !strings.Contains(sb.String(), "stream throughput vs one-shot") {
		t.Error("missing throughput ratio line in output")
	}
}

func TestAblationsShape(t *testing.T) {
	cfg := newAblate(Params{Seed: 68, Scale: 1})
	cfg.N, cfg.Groups, cfg.KeyBlob = 200, 4, 256
	cfg.Warmup, cfg.Measure = 8*time.Minute, 6*time.Minute
	rows, err := cfg.run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 { // 4 studies × 2 variants + faults × 3
		t.Fatalf("rows = %d, want 11", len(rows))
	}
	for _, v := range rows.check() {
		t.Error(v)
	}
	rows.print(io.Discard)
}

func TestSuitesShape(t *testing.T) {
	cfg := newSuites(Params{Seed: 69, Scale: 1})
	cfg.N, cfg.Messages = 150, 40
	res, err := cfg.run()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.check() {
		t.Error(v)
	}
	var sb strings.Builder
	res.printHost(&sb)
	if !strings.Contains(sb.String(), "rsa2048 / ecc") {
		t.Error("missing ratio line in output")
	}
}
