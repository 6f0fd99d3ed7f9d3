package sizeest

import (
	"math"
	"math/rand"
	"testing"
)

// runRounds performs r rounds of random pairwise push-pull averaging
// steps over values, both partners sending their pre-merge value as
// handle does.
func runRounds(values []float64, r int, rng *rand.Rand) {
	n := len(values)
	for round := 0; round < r; round++ {
		for _, i := range rng.Perm(n) {
			j := rng.Intn(n)
			if i == j {
				continue
			}
			vi, vj := values[i], values[j]
			values[i], values[j] = average(vi, vj), average(vj, vi)
		}
	}
}

// TestAverageConvergesAndPreservesMass checks the invariant the
// estimate rests on: pairwise averaging never changes the sum, and
// every value converges to the mean.
func TestAverageConvergesAndPreservesMass(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 200
	values := make([]float64, n)
	sum := 0.0
	for i := range values {
		values[i] = rng.Float64() * 100
		sum += values[i]
	}
	mean := sum / n
	runRounds(values, 30, rng)

	newSum := 0.0
	for _, v := range values {
		newSum += v
		if math.Abs(v-mean) > 0.5 {
			t.Fatalf("node value %.3f far from mean %.3f after 30 rounds", v, mean)
		}
	}
	if math.Abs(newSum-sum) > 1e-6 {
		t.Fatalf("mass not conserved: %.9f vs %.9f", newSum, sum)
	}
}

// TestSizeEstimation runs the counting protocol's seeding, one node at
// 1 and all others at 0, and reads the size as 1/value.
func TestSizeEstimation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 300
	values := make([]float64, n)
	values[0] = 1 // exactly one initiator
	runRounds(values, 40, rng)
	if est := 1 / values[n/2]; est < n*0.9 || est > n*1.1 {
		t.Fatalf("size estimate %.1f, want ~%d", est, n)
	}
}
