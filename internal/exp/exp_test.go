package exp

import (
	"io"
	"strings"
	"testing"
	"time"

	"whisper/internal/ppss"
)

// The experiment tests run every figure/table at reduced scale and
// assert the paper's qualitative findings (the shape checks) hold.
// They are the cross-module integration tests of the whole repository.

func TestFig5Shape(t *testing.T) {
	res, err := Fig5(Fig5Config{Seed: 61, N: 250, Runtime: 6 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("results = %d", len(res))
	}
	for _, v := range Fig5ShapeCheck(res) {
		t.Error(v)
	}
	// Print must produce the CDF series without panicking.
	var sb strings.Builder
	PrintFig5(&sb, res)
	if !strings.Contains(sb.String(), "in-degree P-nodes (Pi=3)") {
		t.Error("missing CDF series in output")
	}
}

func TestFig6Shape(t *testing.T) {
	rows, err := Fig6(Fig6Config{
		Seed: 62, N: 250,
		Warmup: 4 * time.Minute, Measure: 4 * time.Minute,
		Ratios: []float64{0.7}, PiValues: []int{1, 3}, KeyBlobSize: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // unbiased, unbiased+KS, Pi=1+KS, Pi=3+KS
		t.Fatalf("rows = %d", len(rows))
	}
	for _, v := range Fig6ShapeCheck(rows) {
		t.Error(v)
	}
	PrintFig6(io.Discard, rows)
}

func TestTable1Shape(t *testing.T) {
	rows, err := Table1(Table1Config{
		Seed: 63, N: 250, Groups: 5, Rates: []float64{0, 5},
		Warmup: 8 * time.Minute, Window: 8 * time.Minute,
		PPSS: ppss.Config{KeyBlobSize: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range Table1ShapeCheck(rows) {
		t.Error(v)
	}
	if rows[0].SuccessPct < 99 {
		t.Errorf("no-churn success %.1f%%, paper reports 100%%", rows[0].SuccessPct)
	}
	if rows[1].SuccessPct >= rows[0].SuccessPct {
		t.Error("churn did not reduce first-try success")
	}
	PrintTable1(io.Discard, rows)
}

func TestFig7Shape(t *testing.T) {
	var cfgs []Fig7Config
	for _, env := range []Env{Cluster, PlanetLab} {
		cfgs = append(cfgs, Fig7Config{
			Seed: 64, N: 150, Groups: 3, Env: env, Exchanges: 200,
			Warmup: 8 * time.Minute, MaxRun: 15 * time.Minute,
			PPSS: ppss.Config{KeyBlobSize: 256}, Parallel: 1,
		})
	}
	results, err := Fig7(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range Fig7ShapeCheck(results) {
		t.Error(v)
	}
	// Environment separation: the cluster is much faster.
	if results[0].RTTMedian*10 > results[1].RTTMedian {
		t.Errorf("cluster rtt %.4fs not ≪ planetlab rtt %.4fs",
			results[0].RTTMedian, results[1].RTTMedian)
	}
	PrintFig7(io.Discard, results)
}

func TestTable2Shape(t *testing.T) {
	res, err := Table2(Table2Config{
		Seed: 65, N: 200, Groups: 4, Cycles: 3,
		Warmup: 8 * time.Minute,
		PPSS:   ppss.Config{KeyBlobSize: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range Table2ShapeCheck(res) {
		t.Error(v)
	}
	PrintTable2(io.Discard, res)
}

func TestFig8Shape(t *testing.T) {
	rows, err := Fig8(Fig8Config{
		Seed: 66, N: 100, Groups: 24, GroupsPerNode: []int{1, 4},
		Warmup: 6 * time.Minute, Measure: 6 * time.Minute,
		PPSS: ppss.Config{KeyBlobSize: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range Fig8ShapeCheck(rows) {
		t.Error(v)
	}
	// Roughly linear growth: 4 groups should cost noticeably more than 1.
	if rows[1].NUp.P50 < rows[0].NUp.P50*2 {
		t.Errorf("4 groups/node upload (%.3f) not ≫ 1 group/node (%.3f)",
			rows[1].NUp.P50, rows[0].NUp.P50)
	}
	PrintFig8(io.Discard, rows)
}

func TestFig9Shape(t *testing.T) {
	res, err := Fig9(Fig9Config{
		Seed: 67, N: 120, GroupSize: 16, Queries: 60,
		Warmup: 10 * time.Minute, RingTime: 8 * time.Minute,
		PPSS: ppss.Config{Cycle: 30 * time.Second, KeyBlobSize: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range Fig9ShapeCheck(res) {
		t.Error(v)
	}
	PrintFig9(io.Discard, res)
}

func TestCircuitShape(t *testing.T) {
	res, err := Circuit(CircuitConfig{Seed: 69, N: 150, Messages: 60})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range CircuitShapeCheck(res) {
		t.Error(v)
	}
	if res.SteadyRSA != 0 {
		t.Errorf("steady-state RSA ops = %d, want 0", res.SteadyRSA)
	}
	var sb strings.Builder
	PrintCircuit(&sb, res)
	if !strings.Contains(sb.String(), "per-message source CPU ratio") {
		t.Error("missing ratio line in output")
	}
}

func TestTransferShape(t *testing.T) {
	cfg := TransferConfig{Seed: 69, N: 150, Messages: 4, MessageKB: 16}
	res, err := Transfer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range TransferShapeCheck(res) {
		t.Error(v)
	}
	// Same seed, same config: the fingerprint must reproduce exactly.
	again, err := Transfer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint != again.Fingerprint {
		t.Errorf("fingerprint not deterministic: %016x != %016x", res.Fingerprint, again.Fingerprint)
	}
	var sb strings.Builder
	PrintTransfer(&sb, res)
	if !strings.Contains(sb.String(), "fingerprint:") {
		t.Error("missing fingerprint line in output")
	}
	if !strings.Contains(sb.String(), "stream throughput vs one-shot") {
		t.Error("missing throughput ratio line in output")
	}
}

func TestAblationsShape(t *testing.T) {
	rows, err := Ablations(AblateConfig{
		Seed: 68, N: 200, Groups: 4,
		Warmup: 8 * time.Minute, Measure: 6 * time.Minute, KeyBlob: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 { // 4 studies × 2 variants + faults × 3
		t.Fatalf("rows = %d, want 11", len(rows))
	}
	for _, v := range AblationShapeCheck(rows) {
		t.Error(v)
	}
	PrintAblations(io.Discard, rows)
}

func TestSuitesShape(t *testing.T) {
	res, err := Suites(SuitesConfig{Seed: 69, N: 150, Messages: 40})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range SuitesShapeCheck(res) {
		t.Error(v)
	}
	var sb strings.Builder
	PrintSuites(&sb, res)
	if !strings.Contains(sb.String(), "rsa2048 / ecc") {
		t.Error("missing ratio line in output")
	}
}
