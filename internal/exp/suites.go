package exp

import (
	"fmt"
	"io"
	"sync"
	"time"

	"whisper/internal/crypt"
	"whisper/internal/identity"
	"whisper/internal/nylon"
	"whisper/internal/sim"
	"whisper/internal/stats"
	"whisper/internal/wcl"
)

// suitesConfig is the crypto-suite comparison (the Table II style row
// the suite abstraction exists for): the same confidential
// request/response workload run once per suite, at each suite's nominal
// strength — rsa2048 with true 2048-bit moduli (the repo-wide 1024-bit
// default reproduces the paper's 2011 setting and stays untouched) and
// ecc with X25519/Ed25519. Round trips make the source pay both sides
// of its asymmetric bill: the onion build (public-key operations, where
// RSA is cheap) and the reply delivery (a private-key operation, where
// RSA is ~50x the ECC cost).
type suitesConfig struct {
	Seed     int64
	N        int
	Messages int // round trips per leg
}

// newSuites runs 300 nodes and 100 round trips per leg.
func newSuites(p Params) suitesConfig {
	return suitesConfig{Seed: p.Seed, N: p.n(300), Messages: 100}
}

// suiteLeg is the measured cost of one suite's leg.
type suiteLeg struct {
	Suite      string
	RoundTrips int           // completed request/response round trips
	SourceCPU  time.Duration // source-side crypto CPU over the leg
	PerMsg     time.Duration // source share, amortized per round trip
	PathCPU    time.Duration // whole-path crypto CPU (source, relays, destination)
	PerMsgPath time.Duration // whole-path share per round trip
	AsymOps    uint64        // source-side asymmetric operations
	OnionBytes int           // one 3-hop onion for a SymKeySize payload
	Establish  time.Duration // virtual time to establish a circuit (0 = failed)
}

// suitesResult is the per-suite comparison.
type suitesResult struct {
	Messages int
	Legs     []suiteLeg
	// CPURatio is rsa2048 / ecc whole-path crypto CPU per round trip:
	// the middleware's per-message bill, dominated by the RSA peel every
	// relay pays. (The source-only ratio is milder — a source mostly
	// performs the cheap RSA public-key operation — and is reported per
	// leg rather than gated on.)
	CPURatio float64
	// SourceRatio is rsa2048 / ecc source-side CPU per round trip.
	SourceRatio float64
}

// suitePools lazily builds and caches the per-suite experiment pools
// (crypt.SuiteID → func() (*identity.Pool, error)) so repeated runs (and
// the "all" harness) pay key generation once. The rsa2048 leg runs at
// true 2048-bit moduli, which is why it cannot share the repo-wide
// 1024-bit test pool.
var suitePools sync.Map

func suitePool(suite crypt.SuiteID) (*identity.Pool, error) {
	f, _ := suitePools.LoadOrStore(suite, sync.OnceValues(func() (*identity.Pool, error) {
		if suite == crypt.SuiteRSA2048 {
			return identity.NewSuitePool(24, suite, 2048) // 2048-bit generation is slow; sims share keys round-robin
		}
		return identity.NewSuitePool(64, suite, identity.DefaultKeyBits)
	}))
	return f.(func() (*identity.Pool, error))()
}

// suiteOnionBytes sizes one 3-hop onion carrying a SymKeySize payload
// under the given keys, the per-message wire overhead Table II compares.
func suiteOnionBytes(pool *identity.Pool, payload []byte) (int, error) {
	v := pool.View(0)
	hops := make([]crypt.Hop, 3)
	for i := range hops {
		hops[i] = crypt.Hop{Pub: v.Next().Public(), Addr: []byte{10, 0, 0, byte(i), 0, 1}}
	}
	onion, err := crypt.BuildOnion(nil, hops, payload)
	if err != nil {
		return 0, err
	}
	return len(onion), nil
}

// runLeg runs one suite's world and workload.
func (cfg suitesConfig) runLeg(suite crypt.SuiteID) (suiteLeg, error) {
	l := suiteLeg{Suite: suite.String()}
	pool, err := suitePool(suite)
	if err != nil {
		return l, err
	}
	keyBlob := 0 // default 1 KB blobs, the paper's accounting
	if suite == crypt.SuiteECC {
		keyBlob = 2 * crypt.ECCKeyBlobSize // 65-byte keys need no kilobyte padding
	}
	w, err := newWorld("suites-"+l.Suite, sim.Options{
		Seed:    cfg.Seed,
		N:       cfg.N,
		KeyPool: pool,
		Nylon:   nylon.Config{KeyBlobSize: keyBlob},
		WCL:     &wcl.Config{MinPublic: 3},
	})
	if err != nil {
		return l, err
	}
	w.StartAll()
	w.Sim.RunUntil(5 * time.Minute)

	natted := w.LiveNatted()
	if len(natted) < 3 {
		return l, fmt.Errorf("only %d NATted nodes converged", len(natted))
	}
	src, dst := natted[0], natted[1]
	payload := []byte("suite-comparison-request-payload")

	// Echo responder: every delivered request triggers a reply, so one
	// completed round trip costs the source an onion build plus a
	// final-layer open.
	dst.WCL.OnReceive = func(p []byte) {
		dst.WCL.Send(expDest(w, src, 3), p, func(wcl.Result) {})
	}
	src.WCL.OnReceive = func([]byte) { l.RoundTrips++ }

	before := *src.WCL.CPU()
	beforePath := w.CPUTotal()
	for i := 0; i < cfg.Messages; i++ {
		src.WCL.Send(expDest(w, dst, 3), payload, func(wcl.Result) {})
		w.Sim.RunFor(2 * time.Second)
	}
	w.Sim.RunFor(30 * time.Second) // drain replies and acknowledgements
	d, dPath := cpuSince(*src.WCL.CPU(), before), cpuSince(w.CPUTotal(), beforePath)
	l.SourceCPU = d.Total()
	l.PerMsg = l.SourceCPU / time.Duration(cfg.Messages)
	l.PathCPU = dPath.Total()
	l.PerMsgPath = l.PathCPU / time.Duration(cfg.Messages)
	l.AsymOps = d.RSAEncs + d.RSADecs + d.ECCEncs + d.ECCDecs

	// Circuit establishment latency under this suite (a fresh partner,
	// so the echo traffic above cannot have pre-warmed anything).
	dst2 := natted[2]
	t0 := w.Sim.Now()
	src.WCL.SendCircuit(expDest(w, dst2, 3), payload, func(wcl.Result) {})
	for w.Sim.Now()-t0 < time.Minute && !src.WCL.HasCircuit(dst2.ID()) {
		w.Sim.RunFor(100 * time.Millisecond)
	}
	if src.WCL.HasCircuit(dst2.ID()) {
		l.Establish = w.Sim.Now() - t0
	}

	if l.OnionBytes, err = suiteOnionBytes(pool, payload[:crypt.SymKeySize]); err != nil {
		return l, err
	}
	return l, nil
}

// run runs the same confidential round-trip workload once per
// registered crypto suite and compares source CPU, onion size and
// circuit establishment latency.
func (cfg suitesConfig) run() (suitesResult, error) {
	res := suitesResult{Messages: cfg.Messages}
	legs := make(map[string]suiteLeg)
	for _, suite := range crypt.Suites() {
		leg, err := cfg.runLeg(suite)
		if err != nil {
			return res, fmt.Errorf("suites: %v leg: %w", suite, err)
		}
		res.Legs = append(res.Legs, leg)
		legs[leg.Suite] = leg
	}
	if ecc := legs["ecc"]; ecc.PerMsgPath > 0 {
		res.CPURatio = float64(legs["rsa2048"].PerMsgPath) / float64(ecc.PerMsgPath)
	}
	if ecc := legs["ecc"]; ecc.PerMsg > 0 {
		res.SourceRatio = float64(legs["rsa2048"].PerMsg) / float64(ecc.PerMsg)
	}
	return res, nil
}

// print renders the comparison's heading; every row carries a CPU
// column timed on the host.
func (res suitesResult) print(out io.Writer) {
	fmt.Fprintf(out, "== Crypto suites: source cost per confidential round trip (%d round trips) ==\n", res.Messages)
}

// printHost renders the per-suite rows and CPU ratios.
func (res suitesResult) printHost(out io.Writer) {
	tb := stats.NewTable("suite", "round trips", "source CPU/msg", "path CPU/msg", "asym ops", "3-hop onion", "circuit est.")
	for _, l := range res.Legs {
		est := "failed"
		if l.Establish > 0 {
			est = fmt.Sprintf("%.0f ms", l.Establish.Seconds()*1000)
		}
		tb.Row(l.Suite,
			fmt.Sprintf("%d/%d", l.RoundTrips, res.Messages),
			fmt.Sprintf("%.1f µs", float64(l.PerMsg.Nanoseconds())/1000),
			fmt.Sprintf("%.1f µs", float64(l.PerMsgPath.Nanoseconds())/1000),
			fmt.Sprint(l.AsymOps),
			fmt.Sprintf("%d B", l.OnionBytes),
			est)
	}
	fmt.Fprint(out, tb.String())
	fmt.Fprintf(out, "per-message whole-path CPU ratio (rsa2048 / ecc): %.1fx\n", res.CPURatio)
	fmt.Fprintf(out, "per-message source-only CPU ratio (rsa2048 / ecc): %.1fx\n", res.SourceRatio)
}

// check verifies the comparison's claims: both legs deliver,
// the ecc onion is smaller, ecc cuts the middleware's per-message CPU
// by at least 5x against nominal-strength RSA, and the source side
// still comes out at least 2x ahead (sources mostly perform the
// public-key operation, where RSA is cheap — the decisive difference
// is the private-key peel every relay and destination pays).
func (res suitesResult) check() []string {
	var bad []string
	legs := make(map[string]suiteLeg, len(res.Legs))
	for _, l := range res.Legs {
		legs[l.Suite] = l
		if l.RoundTrips < res.Messages*9/10 {
			bad = append(bad, fmt.Sprintf("%s leg completed %d/%d round trips", l.Suite, l.RoundTrips, res.Messages))
		}
		if l.Establish == 0 {
			bad = append(bad, fmt.Sprintf("%s leg failed to establish a circuit", l.Suite))
		}
	}
	if legs["ecc"].OnionBytes >= legs["rsa2048"].OnionBytes {
		bad = append(bad, fmt.Sprintf("ecc onion is %d B vs %d B rsa2048 — not smaller",
			legs["ecc"].OnionBytes, legs["rsa2048"].OnionBytes))
	}
	if res.CPURatio < 5 {
		bad = append(bad, fmt.Sprintf("ecc per-message whole-path CPU only %.1fx below rsa2048, want >= 5x", res.CPURatio))
	}
	if res.SourceRatio < 2 {
		bad = append(bad, fmt.Sprintf("ecc per-message source CPU only %.1fx below rsa2048, want >= 2x", res.SourceRatio))
	}
	return bad
}
