// Command whisper-sim runs a configurable WHISPER scenario on the
// emulated substrate and reports overlay quality, confidential-route
// statistics and bandwidth, optionally under a SPLAY-style churn
// script (see internal/churn).
//
// Examples:
//
//	whisper-sim -n 500 -groups 10 -duration 30m
//	whisper-sim -n 1000 -churn "from 300s to 1200s const churn 1% each 60s" -duration 25m
//	whisper-sim -n 400 -env planetlab -pi 2 -duration 20m
//	whisper-sim -n 300 -runs 8 -parallel 4   # 8 replicas at seeds 1..8
//	whisper-sim -n 20000 -shards 8 -env planetlab -groups 0 -duration 10m
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"whisper/internal/churn"
	"whisper/internal/crypt"
	"whisper/internal/netem"
	"whisper/internal/nylon"
	"whisper/internal/obs"
	"whisper/internal/parallel"
	"whisper/internal/ppss"
	"whisper/internal/prof"
	"whisper/internal/sim"
	"whisper/internal/stats"
	"whisper/internal/wcl"
)

func main() { os.Exit(realMain()) }

// realMain is main returning its exit code, so the profiles are stopped
// on every path.
func realMain() (code int) {
	var (
		n        = flag.Int("n", 300, "number of nodes")
		natRatio = flag.Float64("nat", 0.7, "fraction of nodes behind NATs")
		pi       = flag.Int("pi", 3, "Π: P-node redundancy level")
		groups   = flag.Int("groups", 6, "number of private groups (0 = PSS only)")
		duration = flag.Duration("duration", 20*time.Minute, "virtual runtime")
		seed     = flag.Int64("seed", 1, "random seed")
		env      = flag.String("env", "cluster", "latency model: cluster | planetlab")
		script   = flag.String("churn", "", "inline churn script (SPLAY syntax)")
		file     = flag.String("churn-file", "", "churn script file")
		keyBlob  = flag.Int("keyblob", 1024, "on-wire key blob size (bytes)")
		suite    = flag.String("suite", "rsa2048", "crypto suite every node keys under: rsa2048 or ecc")
		runs     = flag.Int("runs", 1, "replicas to run at seeds seed..seed+runs-1")
		shards   = flag.Int("shards", 1, "event shards (1 = classic single-heap engine; >1 needs a latency-bounded env)")
		metrics  = flag.String("metrics-out", "", "dump the metrics registry as JSON to this file after the run (- = stdout)")
		rollup   = flag.String("metrics-rollup", "", "dump one cross-node rollup of the metrics registry (counters summed, histograms merged) as JSON to this file after the run (- = stdout)")
		par      = flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent replicas (1 = sequential)")

		faultDup     = flag.Float64("fault-dup", 0, "per-datagram duplication probability")
		faultReorder = flag.Float64("fault-reorder", 0, "per-datagram reordering probability")
		faultJitter  = flag.Duration("fault-reorder-jitter", 100*time.Millisecond, "reordering extra-delay window")
		faultBurstP  = flag.Float64("fault-burst-p", 0, "Gilbert-Elliott P(Good→Bad); 0 disables burst loss")
		faultBurstR  = flag.Float64("fault-burst-r", 0.25, "Gilbert-Elliott P(Bad→Good)")
		faultBurstL  = flag.Float64("fault-burst-loss", 1, "drop probability in the Bad state")

		profiles = prof.Register(flag.CommandLine)
	)
	flag.Parse()

	if *file != "" {
		raw, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		*script = string(raw)
	}

	suiteID, err := crypt.ParseSuite(*suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	cfg := scenario{
		n: *n, natRatio: *natRatio, pi: *pi, groups: *groups,
		duration: *duration, env: *env, script: *script, keyBlob: *keyBlob,
		suite: suiteID, metricsOut: *metrics, rollupOut: *rollup, shards: *shards,
	}
	if *faultDup > 0 || *faultReorder > 0 || *faultBurstP > 0 {
		cfg.faults = &netem.FaultModel{
			DupProb:       *faultDup,
			ReorderProb:   *faultReorder,
			ReorderJitter: *faultJitter,
		}
		if *faultBurstP > 0 {
			cfg.faults.Burst = &netem.GilbertElliott{
				PGoodBad: *faultBurstP, PBadGood: *faultBurstR, LossBad: *faultBurstL,
			}
		}
	}
	stopProfiles, err := profiles.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}()
	if *runs <= 1 {
		// Single scenario: stream to stdout as it runs, exactly like the
		// pre-replica harness.
		if err := cfg.run(os.Stdout, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}
	// Replicas are independent sims; buffer each run's output and print
	// them in seed order once all workers join.
	outs, err := parallel.Map(parallel.Workers(*par), *runs, func(i int) ([]byte, error) {
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "=== replica %d (seed %d) ===\n", i, *seed+int64(i))
		if err := cfg.run(&buf, *seed+int64(i)); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	for _, out := range outs {
		os.Stdout.Write(out)
	}
	return 0
}

// scenario is one whisper-sim configuration, runnable at any seed.
type scenario struct {
	n          int
	natRatio   float64
	pi         int
	groups     int
	duration   time.Duration
	env        string
	script     string
	keyBlob    int
	suite      crypt.SuiteID
	faults     *netem.FaultModel
	metricsOut string
	rollupOut  string
	shards     int
}

func (c scenario) run(out io.Writer, seed int64) error {
	var model netem.LatencyModel = netem.Cluster{}
	if c.env == "planetlab" {
		model = netem.DefaultPlanetLab()
	}
	var reg *obs.Registry
	if c.metricsOut != "" || c.rollupOut != "" {
		reg = obs.NewRegistry()
	}
	opts := sim.Options{
		Seed:     seed,
		N:        c.n,
		NATRatio: c.natRatio,
		Shards:   c.shards,
		Model:    model,
		Faults:   c.faults,
		Nylon:    nylon.Config{MinPublic: c.pi, KeyBlobSize: c.keyBlob},
		Suite:    c.suite,
		Obs:      reg.Scope("seed", fmt.Sprint(seed)),
	}
	if c.groups > 0 {
		opts.WCL = &wcl.Config{MinPublic: c.pi}
		opts.PPSS = &ppss.Config{MinHelpers: c.pi, KeyBlobSize: c.keyBlob}
	}
	fmt.Fprintf(out, "building %d nodes (%.0f%% NATted, Π=%d, %s)...\n", c.n, c.natRatio*100, c.pi, c.env)
	w, err := sim.NewWorld(opts)
	if err != nil {
		return err
	}
	w.StartAll()
	w.RunUntil(4 * time.Minute)

	var leaders []*ppss.Instance
	if c.groups > 0 {
		pubs := w.LivePublics()
		for i := 0; i < c.groups && i < len(pubs); i++ {
			inst, err := pubs[i].PPSS.CreateGroup(fmt.Sprintf("group-%d", i))
			if err == nil {
				leaders = append(leaders, inst)
			}
		}
		gi := 0
		for _, node := range w.Live() {
			if len(node.PPSS.Instances()) > 0 {
				continue
			}
			inst := leaders[gi%len(leaders)]
			gi++
			accr, entry, err := inst.Invite(node.ID())
			if err != nil {
				continue
			}
			node.PPSS.Join(fmt.Sprintf("group-%d", (gi-1)%len(leaders)), accr, entry, nil2)
			w.RunFor(time.Second)
		}
		fmt.Fprintf(out, "%d private groups formed\n", len(leaders))
	}

	if c.script != "" {
		plan, err := churn.Parse(c.script)
		if err != nil {
			return err
		}
		rng := w.Rand()
		plan.RunOn(w, churn.Actions{
			Population: func() int { return len(w.Live()) },
			Leave: func(count int) {
				w.KillRandom(count)
			},
			Join: func(count int) {
				for i := 0; i < count; i++ {
					node := w.Spawn()
					node.Nylon.Start()
					if len(leaders) > 0 {
						inst := leaders[rng.Intn(len(leaders))]
						nd := node
						w.Schedule(w.Now()+30*time.Second, func() {
							if nd.Nylon.Stopped() {
								return
							}
							if accr, entry, err := inst.Invite(nd.ID()); err == nil {
								nd.PPSS.Join(fmt.Sprintf("group-%d", 0), accr, entry, nil2)
							}
						})
					}
				}
			},
			Stop: func() { fmt.Fprintln(out, "[churn script: stop]") },
		})
		fmt.Fprintln(out, "churn script scheduled")
	}

	w.RunUntil(c.duration)
	report(out, w)
	if c.metricsOut != "" {
		if err := dumpMetrics(reg, c.metricsOut, seed); err != nil {
			return err
		}
	}
	if c.rollupOut != "" {
		if err := dumpRollup(reg, c.rollupOut, seed); err != nil {
			return err
		}
	}
	return nil
}

// dumpMetrics writes the registry JSON to path ("-" = stdout). With
// replicas, each seed gets its own file suffix so runs don't clobber
// one another.
func dumpMetrics(reg *obs.Registry, path string, seed int64) error {
	if path == "-" {
		return reg.WriteJSONTo(os.Stdout)
	}
	return reg.WriteJSON(fmt.Sprintf("%s.seed%d", path, seed))
}

// dumpRollup writes one cross-node rollup document: the per-node
// dimension is collapsed (counters summed, histograms merged), leaving
// one series per instrument per seed.
func dumpRollup(reg *obs.Registry, path string, seed int64) error {
	if path == "-" {
		return reg.WriteRollupJSONTo(os.Stdout, "node")
	}
	return reg.WriteRollupJSON(fmt.Sprintf("%s.seed%d", path, seed), "node")
}

func nil2(*ppss.Instance, error) {}

func report(out io.Writer, w *sim.World) {
	fmt.Fprintf(out, "\n=== report at t=%v ===\n", w.Now())
	live := w.Live()
	fmt.Fprintf(out, "live nodes: %d (%d public, %d NATted)\n", len(live), len(w.LivePublics()), len(w.LiveNatted()))

	g := w.GraphStream()
	cc := g.ClusteringCoefficients()
	var ccVals []float64
	for _, v := range cc {
		ccVals = append(ccVals, v)
	}
	fmt.Fprintf(out, "overlay: connected=%v, avg clustering=%.4f\n", g.WeaklyConnected(), stats.Summarize(ccVals).Mean)

	var nyl nylon.Stats
	for _, node := range live {
		s := node.Nylon.Stats()
		nyl.ShufflesCompleted += s.ShufflesCompleted
		nyl.ShufflesTimedOut += s.ShufflesTimedOut
		nyl.RelaysForwarded += s.RelaysForwarded
		nyl.PunchSuccesses += s.PunchSuccesses
	}
	fmt.Fprintf(out, "PSS: %d shuffles completed, %d timed out, %d relayed forwards, %d punches\n",
		nyl.ShufflesCompleted, nyl.ShufflesTimedOut, nyl.RelaysForwarded, nyl.PunchSuccesses)

	var wst wcl.Stats
	haveWCL := false
	for _, node := range live {
		if node.WCL == nil {
			continue
		}
		haveWCL = true
		s := node.WCL.Stats()
		wst.Sent += s.Sent
		wst.FirstTrySuccess += s.FirstTrySuccess
		wst.AltSuccess += s.AltSuccess
		wst.Failed += s.Failed
		wst.Delivered += s.Delivered
	}
	if haveWCL {
		total := wst.FirstTrySuccess + wst.AltSuccess + wst.Failed
		if total > 0 {
			fmt.Fprintf(out, "WCL: %d routes (%.1f%% first try, %.1f%% via alternative, %.1f%% failed), %d deliveries\n",
				total,
				100*float64(wst.FirstTrySuccess)/float64(total),
				100*float64(wst.AltSuccess)/float64(total),
				100*float64(wst.Failed)/float64(total),
				wst.Delivered)
		}
	}

	var up, down []float64
	mins := w.Now().Minutes()
	for _, node := range live {
		m := node.Nylon.Meter()
		up = append(up, m.UpKB()/mins)
		down = append(down, m.DownKB()/mins)
	}
	fmt.Fprintf(out, "bandwidth per node: up %s KB/min, down %s KB/min\n",
		stats.StackOf(up).String(), stats.StackOf(down).String())

	if w.Opts.Faults != nil {
		fs := w.NetFaultStats()
		fmt.Fprintf(out, "faults injected: %d duplicated, %d reordered, %d burst-dropped, %d partitioned\n",
			fs.Duplicated, fs.Reordered, fs.BurstDropped, fs.Partitioned)
	}
}
