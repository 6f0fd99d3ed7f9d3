package main

import "time"

// metricDef names one metric of the benchmark. BENCHMARK.json lists the
// same names, units, directions and bounds; the smoke test fails when
// the two disagree.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Clock  string  // "host" = this machine's wall clock, "virtual" = simulated time or a count, exact for a seed
}

// endToEnd are the metrics a user of the system sees, printed by every
// plain run of every workload.
var endToEnd = []metricDef{
	// sim.NewWorld + StartAll + warm-up + group formation, up to the first timed op; median of three set-ups in fresh processes
	{"setup_s", "s", "lower", 0.25, "host"},
	// successful ops per wall second of the timed part: median over its slices of equal op count (gossip-scale: the rate over the whole timed part)
	{"ops_per_s", "1/s", "higher", 0.15, "host"},
	// submit to source completion callback, successful ops, re-submissions included (lossy-lan: cells only; gossip-scale: time since the node's previous completed shuffle)
	{"latency_p50_ms", "ms", "lower", 0.10, "virtual"},
	// 95th percentile of the same sample
	{"latency_p95_ms", "ms", "lower", 0.25, "virtual"},
	// submissions acknowledged at the source / submissions ended; a refused or timed-out submission is a failure (gossip-scale: shuffles completed / ended)
	{"delivery_ratio", "ratio", "higher", 0.02, "virtual"},
	// application deliveries / distinct (sender, seq) delivered: 1 is exactly-once, the ISSUE's dup_ratio is this minus 1
	{"deliveries_per_msg", "ratio", "lower", 0.02, "virtual"},
	// verified payload KiB delivered per virtual second (gossip-scale: view entries moved by completed shuffles, at their in-memory size)
	{"goodput_kibps", "KiB/s", "higher", 0.25, "virtual"},
	// sum of Nylon.Meter().UpBytes over all nodes / successful ops, gossip upkeep included as in the paper's Fig 6 and 8
	{"wire_bytes_per_op", "B", "lower", 0.25, "virtual"},
	// MemStats.Mallocs / successful ops
	{"allocs_per_op", "count", "lower", 0.20, "host"},
	// MemStats.TotalAlloc / successful ops
	{"alloc_kib_per_op", "KiB", "lower", 0.20, "host"},
	// double-GC-settled HeapAlloc at the end of the fixed part minus before sim.NewWorld, / N
	{"heap_bytes_per_node", "B", "lower", 0.03, "host"},
	// VmHWM of the measuring process
	{"peak_rss_mib", "MiB", "lower", 0.10, "host"},
}

// perLayerStatic are the per-layer metrics that do not come from a
// table: spans, runtime totals and work counts. The self-time buckets
// (layers × two metrics) and the direct cases are appended by perLayer.
var perLayerStatic = []metricDef{
	{Name: "sim.new_world_s", Unit: "s", Better: "lower", Clock: "host"},      // span: sim.NewWorld
	{Name: "sim.warmup_s", Unit: "s", Better: "lower", Clock: "host"},         // span: StartAll + RunUntil(warm-up)
	{Name: "ppss.group_form_s", Unit: "s", Better: "lower", Clock: "host"},    // span: CreateGroup, 23 joins, settle
	{Name: "ppss.join_ms_p50", Unit: "ms", Better: "lower", Clock: "virtual"}, // median join handshake
	{Name: "wcl.submit_us_p50", Unit: "us", Better: "lower", Clock: "host"},   // span: time inside the synchronous Send/SendCircuit/SendStream call
	{Name: "wcl.submit_us_p95", Unit: "us", Better: "lower", Clock: "host"},   // 95th percentile of the same
	{Name: "sim.pump_s", Unit: "s", Better: "lower", Clock: "host"},           // span: everything run by RunFor in the timed part and the drain

	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower", Clock: "host"},   // runtime/metrics: GC CPU / busy CPU over the timed part
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Clock: "host"},      // runtime/metrics: GC cycles over the timed part
	{Name: "runtime.cpu_s", Unit: "s", Better: "lower", Clock: "host"},              // rusage user+system over the timed part
	{Name: "runtime.cpu_over_wall", Unit: "ratio", Better: "higher", Clock: "host"}, // cpu_s / wall: cores kept busy
	{Name: "trace.ops_per_s", Unit: "1/s", Better: "higher", Clock: "host"},         // ops_per_s of the traced run; over the plain run's it is the tracing overhead

	{Name: "simnet.events", Unit: "count", Better: "lower", Clock: "virtual"}, // events executed in the fixed part
	{Name: "simnet.events_per_op", Unit: "count", Better: "lower", Clock: "virtual"},
	{Name: "simnet.events_per_s", Unit: "1/s", Better: "higher", Clock: "host"},
	{Name: "simnet.windows", Unit: "count", Better: "lower", Clock: "virtual"}, // synchronization windows (0 on the single-shard engine)
	{Name: "simnet.events_per_window", Unit: "count", Better: "higher", Clock: "virtual"},
	{Name: "simnet.window_wall_us_p50", Unit: "us", Better: "lower", Clock: "host"}, // host time per window incl. barrier exchange (window hook)
	{Name: "simnet.window_wall_us_p95", Unit: "us", Better: "lower", Clock: "host"},
	{Name: "simnet.pending_p50", Unit: "count", Better: "lower", Clock: "virtual"}, // queued events, sampled per window (single shard: per pump step)
	{Name: "simnet.pending_max", Unit: "count", Better: "lower", Clock: "virtual"},

	{Name: "netem.sent", Unit: "count", Better: "lower", Clock: "virtual"},       // datagrams accepted for transmission
	{Name: "netem.drop_ratio", Unit: "ratio", Better: "lower", Clock: "virtual"}, // dropped (loss, faults, dead destination) / sent
	{Name: "netem.dup_injected", Unit: "count", Better: "lower", Clock: "virtual"},
	{Name: "netem.reordered", Unit: "count", Better: "lower", Clock: "virtual"},
	{Name: "netem.burst_dropped", Unit: "count", Better: "lower", Clock: "virtual"},
	{Name: "netem.bytes_nylon", Unit: "B", Better: "lower", Clock: "virtual"}, // tap: wire bytes of gossip, NAT traversal and key exchange
	{Name: "netem.bytes_wcl", Unit: "B", Better: "lower", Clock: "virtual"},   // tap: wire bytes of WCL messages, relayed ones included; PPSS traffic travels inside them and cannot be told apart on the wire

	{Name: "nylon.shuffle_timeout_ratio", Unit: "ratio", Better: "lower", Clock: "virtual"},
	{Name: "nylon.relays_per_shuffle", Unit: "ratio", Better: "lower", Clock: "virtual"},
	{Name: "nylon.punch_success_ratio", Unit: "ratio", Better: "higher", Clock: "virtual"},
	{Name: "nylon.route_failures", Unit: "count", Better: "lower", Clock: "virtual"},

	{Name: "crypt.rsa_ops_per_op", Unit: "count", Better: "lower", Clock: "virtual"}, // CPUMeter: RSA encryptions + decryptions (onion and circuit set-up layers) per op
	{Name: "crypt.sig_ops_per_op", Unit: "count", Better: "lower", Clock: "virtual"}, // CPUMeter: RSA signatures + verifications (PPSS passports, accreditations) per op
	{Name: "crypt.aes_ops_per_op", Unit: "count", Better: "lower", Clock: "virtual"},
	{Name: "crypt.rsa_busy_share", Unit: "ratio", Better: "lower", Clock: "host"}, // CPUMeter RSA time / wall time of the fixed part
	{Name: "crypt.aes_busy_share", Unit: "ratio", Better: "lower", Clock: "host"},

	{Name: "wcl.first_try_ratio", Unit: "ratio", Better: "higher", Clock: "virtual"},  // one-shot sends that succeeded on the first path / ended
	{Name: "wcl.alt_success_ratio", Unit: "ratio", Better: "lower", Clock: "virtual"}, // one-shot sends that needed an alternative path / ended
	{Name: "wcl.mixes_tried_per_send", Unit: "count", Better: "lower", Clock: "virtual"},
	{Name: "wcl.cells_forwarded_per_op", Unit: "count", Better: "lower", Clock: "virtual"},
	{Name: "wcl.cell_fallback_ratio", Unit: "ratio", Better: "lower", Clock: "virtual"},     // cells re-sent through the one-shot engine / cells sent
	{Name: "wcl.stream_retransmit_ratio", Unit: "ratio", Better: "lower", Clock: "virtual"}, // stream fragments re-sent / sent
	{Name: "wcl.dup_forwards", Unit: "count", Better: "lower", Clock: "virtual"},            // duplicate forwards suppressed before the peel
	{Name: "wcl.dup_deliveries", Unit: "count", Better: "lower", Clock: "virtual"},          // exit-side duplicates suppressed: paths, cells and stream fragments
	{Name: "wcl.circuits_opened", Unit: "count", Better: "lower", Clock: "virtual"},
	{Name: "wcl.circuits_rotated", Unit: "count", Better: "lower", Clock: "virtual"},

	{Name: "ppss.exchanges_completed", Unit: "count", Better: "higher", Clock: "virtual"},
	{Name: "ppss.exchange_timeout_ratio", Unit: "ratio", Better: "lower", Clock: "virtual"},
	{Name: "ppss.joins_failed", Unit: "count", Better: "lower", Clock: "virtual"}, // join attempts that failed, set-up included
}

// perLayer lists every metric a traced run prints.
func perLayer() []metricDef {
	out := append([]metricDef(nil), perLayerStatic...)
	for _, l := range layers {
		out = append(out,
			metricDef{Name: l + ".cpu_share", Unit: "ratio", Better: "lower", Clock: "host"}, // CPU profile: share of samples whose leaf frame is in this layer
			metricDef{Name: l + ".cpu_us_per_op", Unit: "us", Better: "lower", Clock: "host"})
	}
	for _, c := range directCases() {
		unit := "ns"
		if c.Unit == time.Microsecond {
			unit = "us"
		}
		out = append(out,
			metricDef{Name: c.Name, Unit: unit, Better: "lower", Clock: "host"}, // direct call, median of batches
			metricDef{Name: c.Allocs, Unit: "count", Better: "lower", Clock: "host"})
	}
	return out
}

// benchmarkSpec is BENCHMARK.json, the description of this benchmark the
// driver reads.
type benchmarkSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specWhy    `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// spec builds BENCHMARK.json from the tables the program measures and
// prints from; `go run ./bench -spec` writes it out and the smoke test
// fails when the committed file differs.
func spec() benchmarkSpec {
	s := benchmarkSpec{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, wl := range workloads {
		s.Workloads = append(s.Workloads, specWhy{wl.Name, wl.Why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		s.EndToEnd = append(s.EndToEnd, specMetric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer() {
		s.PerLayer = append(s.PerLayer, specMetric{d.Name, d.Unit, d.Better, nil})
	}
	return s
}
