package main

import (
	"fmt"
	"maps"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"whisper/internal/stats"
)

// runResult is what one (workload, run) child process reports.
type runResult struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Trace    bool     `json:"trace"`
	Correct  bool     `json:"correct"`
	Problems []string `json:"problems,omitempty"`

	// Operation counts of the fixed part (see counts).
	Ops counts `json:"ops"`
	// Metrics holds every end-to-end metric on a plain run and every
	// per-layer metric on a traced run.
	Metrics map[string]float64 `json:"metrics"`

	SetupS         []float64 `json:"setup_s_all,omitempty"` // every set-up behind the setup_s median
	LatencySamples int       `json:"latency_samples"`
	Slices         int       `json:"slices"`          // throughput slices behind the ops_per_s median
	OpsTotal       uint64    `json:"ops_total"`       // successful ops of the whole timed part
	OpsPerSTotal   float64   `json:"ops_per_s_total"` // the same over its whole wall time
	MeasuredS      float64   `json:"measured_s"`      // host seconds, first timed op to last slice
	FixedVirtualS  float64   `json:"fixed_virtual_s"`
	// Fingerprint is made of schedule-derived counters of the fixed
	// part only, so two runs of one seed and one protocol print the
	// same line however fast the host is.
	Fingerprint string `json:"fingerprint"`
}

// mark is a reading of everything the end-to-end metrics difference
// between the first timed op and the end of the fixed part.
type mark struct {
	counts
	virtual    time.Duration
	upBytes    uint64
	mallocs    uint64
	allocBytes uint64
	events     uint64
	sent       uint64
	dropped    uint64
}

func (b *world) mark(c counts) mark {
	m := mark{counts: c, virtual: b.w.Now(), events: b.w.Executed()}
	m.sent, m.dropped = b.w.NetStats()
	for _, n := range b.w.Nodes {
		m.upBytes += n.Nylon.Meter().UpBytes()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.mallocs, m.allocBytes = ms.Mallocs, ms.TotalAlloc
	return m
}

// run measures one workload in this process and returns its result.
// budget is the host time the timed part lasts at least; the fixed part
// always completes, so virtual metrics and counts do not depend on it.
func run(wl *workload, seed int64, budget time.Duration, tr *tracer) (*runResult, error) {
	b, err := setUp(wl, seed, tr)
	if err != nil {
		return nil, err
	}
	res := &runResult{Workload: wl.Name, Seed: seed, Trace: tr != nil, Metrics: map[string]float64{}}
	var m0, m1 mark
	var heap uint64
	var lats []float64
	var rates []float64 // successful ops per host second, one per slice
	var total uint64
	var wall time.Duration
	if g := b.gossip; g != nil {
		g.onFixed = func() { m1, heap = b.mark(g.counts()), settledHeap(); tr.fixed() }
		m0 = b.mark(g.counts())
		tr.start()
		g.run(budget)
		lats, rates, total, wall = g.refreshMS(m0.virtual, m1.virtual), g.slices, g.total, g.wall
		g.check()
	} else {
		l := newLoad(b, seed, budget)
		l.onFixed = func() { m1, heap = b.mark(l.now), settledHeap(); tr.fixed() }
		m0 = b.mark(l.now)
		tr.start()
		l.run()
		for _, ns := range l.lats {
			lats = append(lats, float64(ns)/float64(time.Millisecond))
		}
		rates, total = l.slices, l.now.Succeeded
		wall = l.sliceStart.Sub(l.started)
		l.check()
	}
	tr.stop(total)
	if m1.virtual == 0 {
		b.problem("the fixed part did not complete")
		m1 = m0
	}
	opsPerS := median(rates)
	if b.gossip != nil {
		opsPerS = b.gossip.opsPerS() // see the gossip type for why not the median
	}

	d := m1.counts.minus(m0.counts)
	res.Ops = d
	res.LatencySamples, res.Slices = len(lats), len(rates)
	res.OpsTotal, res.MeasuredS = total, wall.Seconds()
	if wall > 0 {
		res.OpsPerSTotal = float64(total) / wall.Seconds()
	}
	virtualS := (m1.virtual - m0.virtual).Seconds()
	res.FixedVirtualS = virtualS
	res.Fingerprint = fmt.Sprintf("events=%d sent=%d dropped=%d attempted=%d succeeded=%d failed=%d submissions=%d delivered=%d duplicates=%d virtual=%v",
		m1.events-m0.events, m1.sent-m0.sent, m1.dropped-m0.dropped,
		d.Attempted, d.Succeeded, d.Failed, d.Submissions, d.Delivered, d.Duplicates, m1.virtual-m0.virtual)

	if tr == nil {
		ok := float64(d.Succeeded)
		e := res.Metrics
		e["setup_s"] = b.setup.Seconds()
		e["ops_per_s"] = opsPerS
		e["latency_p50_ms"] = stats.Percentile(lats, 50)
		e["latency_p95_ms"] = stats.Percentile(lats, 95)
		e["delivery_ratio"] = ok / float64(d.Succeeded+d.SubmitFails)
		e["deliveries_per_msg"] = float64(d.Delivered+d.Duplicates) / float64(d.Delivered)
		e["goodput_kibps"] = float64(d.PayloadB) / 1024 / virtualS
		e["wire_bytes_per_op"] = float64(m1.upBytes-m0.upBytes) / ok
		e["allocs_per_op"] = float64(m1.mallocs-m0.mallocs) / ok
		e["alloc_kib_per_op"] = float64(m1.allocBytes-m0.allocBytes) / 1024 / ok
		e["heap_bytes_per_node"] = float64(heap-min(heap, b.heapBefore)) / float64(wl.N)
		e["peak_rss_mib"] = peakRSSMiB()
	} else {
		tr.metrics(b, res, d)
		res.Metrics["trace.ops_per_s"] = opsPerS
	}
	runtime.KeepAlive(b)
	// A metric that is not a number (an empty sample, a zero divisor)
	// means the run measured nothing: say which, and keep the result
	// encodable.
	for _, name := range slices.Sorted(maps.Keys(res.Metrics)) {
		if v := res.Metrics[name]; math.IsNaN(v) || math.IsInf(v, 0) {
			b.problem("metric %s is %v", name, v)
			res.Metrics[name] = 0
		}
	}
	res.Problems = b.err
	res.Correct = len(b.err) == 0
	return res, nil
}

func (a counts) minus(b counts) counts {
	return counts{
		Attempted:   a.Attempted - b.Attempted,
		Succeeded:   a.Succeeded - b.Succeeded,
		Failed:      a.Failed - b.Failed,
		Submissions: a.Submissions - b.Submissions,
		SubmitFails: a.SubmitFails - b.SubmitFails,
		Delivered:   a.Delivered - b.Delivered,
		Duplicates:  a.Duplicates - b.Duplicates,
		PayloadB:    a.PayloadB - b.PayloadB,
	}
}

// median is the 50th percentile by linear interpolation; NaN for an
// empty sample.
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// peakRSSMiB reads this process's resident-set high-water mark.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
