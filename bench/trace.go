package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"whisper/internal/crypt"
	"whisper/internal/netem"
	"whisper/internal/nylon"
	"whisper/internal/sim"
	"whisper/internal/stats"
	"whisper/internal/wire"
)

// tracer collects everything the per-layer metrics need. Plain runs
// carry a nil *tracer: every method is a no-op on nil, so the measured
// code is the same with tracing off and pays nothing for it.
//
// Three sources, all outside the layers: spans around the benchmark's
// own calls into them; a CPU profile of the timed part, bucketed by the
// package of the leaf frame; and the layers' exported counters, read at
// the first timed op and at the end of the fixed part.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // indices of the open synchronous spans, innermost last

	w       *sim.World
	prof    bytes.Buffer
	profErr error
	cpu     map[string]float64 // layer -> CPU nanoseconds of the timed part
	ops     uint64             // successful ops of the timed part

	at0, at1   time.Time // host time of the two readings
	r0, r1     reading
	rt0, rtEnd runtimeReading // runtime totals around the timed part
	winWallUS  []float64      // host µs per synchronization window (sharded engine)
	pending    []float64      // queued events, sampled per window or per pump step
	lastWindow time.Time
	windows    uint64
	taps       []tapCount // one per shard network
}

// span is one timed call made by the benchmark: name, start and end on
// the host clock (ns since the tracer's epoch), the span that was open
// when it began, and the op it belongs to (0 = none).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 = root
	Op     uint64 `json:"op,omitempty"`
}

// tapCount is written by one shard's goroutine only.
type tapCount struct {
	nylon, wcl uint64
	_          [48]byte // keep neighbouring shards off one cache line
}

// reading is one snapshot of the layers' exported counters.
type reading struct {
	events, sent, dropped uint64
	faults                netem.FaultStats
	nylon                 nylon.Stats
	cpu                   crypt.CPUMeter
	wcl                   wclTotals
	ppssInit, ppssDone    uint64
	ppssTimedOut          uint64
	joinsFailed           uint64
	tapNylon, tapWCL      uint64
}

type wclTotals struct {
	first, alt, ended, mixes           uint64
	cellsSent, cellsFwd, cellFallbacks uint64
	fragsSent, retransmits             uint64
	dupForwards, dupDeliveries         uint64
	circuitsOpened, circuitsRotated    uint64
}

type runtimeReading struct {
	gcCPU, busyCPU float64 // seconds
	gcCycles       uint64
	rusage         float64 // user+system seconds of the process
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a synchronous span; the spans begun before its end are
// its children.
func (t *tracer) begin(name string, op uint64) int {
	if t == nil {
		return -1
	}
	i := t.beginAsync(name, op)
	t.open = append(t.open, i)
	return i
}

// beginAsync opens a span that ends in a later callback: it has a
// parent but adopts no children.
func (t *tracer) beginAsync(name string, op uint64) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.epoch))
	if n := len(t.open); n > 0 && t.open[n-1] == i {
		t.open = t.open[:n-1]
	}
}

// attach installs the taps and the window hook on a fresh world.
func (t *tracer) attach(w *sim.World) {
	if t == nil {
		return
	}
	t.w = w
	nets := []*netem.Network{w.Net}
	if w.Sharded() {
		nets = nets[:0]
		for i := 0; i < w.Engine().Shards(); i++ {
			nets = append(nets, w.Fabric().Net(i))
		}
		eng := w.Engine()
		eng.SetWindowHook(func(_, _ time.Duration) {
			now := time.Now()
			if !t.at0.IsZero() && t.at1.IsZero() {
				t.windows++
				t.winWallUS = append(t.winWallUS, float64(now.Sub(t.lastWindow))/float64(time.Microsecond))
				t.pending = append(t.pending, float64(eng.Pending()))
			}
			t.lastWindow = now
		})
	}
	t.taps = make([]tapCount, len(nets))
	for i, n := range nets {
		c := &t.taps[i]
		n.SetTap(func(dg netem.Datagram) {
			if owner(dg.Payload) == nylon.MsgApp {
				c.wcl += uint64(dg.WireSize())
			} else {
				c.nylon += uint64(dg.WireSize())
			}
		})
	}
}

// nylonRelayTag is nylon's (unexported) tag of a relay frame. The tap
// looks through relay frames so that a WCL message forwarded by a
// rendezvous node is still charged to the WCL; the smoke test fails if
// a full-stack world shows no WCL bytes, which is what a renumbering
// would cause.
const nylonRelayTag = 3

// owner returns the leading tag of the message a datagram carries,
// unwrapping relay frames (tag, path, final hop, inner message).
func owner(p []byte) uint8 {
	for len(p) > 0 && p[0] == nylonRelayTag {
		r := wire.NewReader(p[1:])
		r.Raw(8 * int(r.U8()))
		r.U64()
		p = r.Bytes32()
	}
	if len(p) == 0 {
		return 0
	}
	return p[0]
}

// pumped samples the event queue of a single-shard world once per pump
// step (sharded worlds sample per window, in the hook).
func (t *tracer) pumped() {
	if t == nil || t.w.Sharded() || t.at0.IsZero() || !t.at1.IsZero() {
		return
	}
	t.pending = append(t.pending, float64(t.w.Sim.Pending()))
}

// start takes the first reading and starts the CPU profile; it is
// called right before the first timed op.
func (t *tracer) start() {
	if t == nil {
		return
	}
	t.r0, t.rt0 = t.read(), readRuntime()
	t.profErr = pprof.StartCPUProfile(&t.prof)
	t.at0 = time.Now()
	t.lastWindow = t.at0
}

// fixed takes the second reading, at the end of the fixed part.
func (t *tracer) fixed() {
	if t == nil {
		return
	}
	t.at1 = time.Now()
	t.r1 = t.read()
}

// stop ends the CPU profile after the timed part; ops is the number of
// successful ops the profile covers.
func (t *tracer) stop(ops uint64) {
	if t == nil {
		return
	}
	t.ops = ops
	if t.profErr == nil {
		pprof.StopCPUProfile()
		t.cpu, t.profErr = bucketProfile(t.prof.Bytes())
	}
	t.rtEnd = readRuntime()
}

func (t *tracer) read() reading {
	w := t.w
	r := reading{events: w.Executed(), faults: w.NetFaultStats(), cpu: w.CPUTotal()}
	r.sent, r.dropped = w.NetStats()
	for _, n := range w.Nodes {
		s := n.Nylon.Stats()
		r.nylon.ShufflesInitiated += s.ShufflesInitiated
		r.nylon.ShufflesTimedOut += s.ShufflesTimedOut
		r.nylon.RelaysForwarded += s.RelaysForwarded
		r.nylon.PunchAttempts += s.PunchAttempts
		r.nylon.PunchSuccesses += s.PunchSuccesses
		r.nylon.RouteFailures += s.RouteFailures
		if n.WCL != nil {
			s := n.WCL.Stats()
			x := &r.wcl
			x.first += s.FirstTrySuccess
			x.alt += s.AltSuccess
			x.ended += s.FirstTrySuccess + s.AltSuccess + s.Failed
			x.mixes += s.MixesTriedSum
			x.cellsSent += s.CellsSent
			x.cellsFwd += s.CellsForwarded
			x.cellFallbacks += s.CellFallbacks
			x.fragsSent += s.StreamFragsSent
			x.retransmits += s.StreamRetransmits
			x.dupForwards += s.DupForwards
			x.dupDeliveries += s.DupDeliveries + s.DupCells + s.DupStreamFrags
			x.circuitsOpened += s.CircuitsOpened
			x.circuitsRotated += s.CircuitsRotated
		}
		if n.PPSS != nil {
			r.joinsFailed += n.PPSS.Stats().JoinsFailed
			for _, in := range n.PPSS.Instances() {
				s := in.Stats()
				r.ppssInit += s.ExchangesInitiated
				r.ppssDone += s.ExchangesCompleted
				r.ppssTimedOut += s.ExchangesTimedOut
			}
		}
	}
	for i := range t.taps {
		r.tapNylon += t.taps[i].nylon
		r.tapWCL += t.taps[i].wcl
	}
	return r
}

func readRuntime() runtimeReading {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	r := runtimeReading{
		gcCPU:    s[0].Value.Float64(),
		busyCPU:  s[1].Value.Float64() - s[2].Value.Float64(),
		gcCycles: s[3].Value.Uint64(),
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		r.rusage = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	return r
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// metrics fills res.Metrics with every per-layer metric of a traced run
// except the direct-call ones. d are the op counts of the fixed part.
func (t *tracer) metrics(b *world, res *runResult, d counts) {
	m := res.Metrics
	ops := d.Succeeded
	fixedWall := t.at1.Sub(t.at0).Seconds()

	// Spans.
	for _, name := range []string{"sim.new_world", "sim.warmup", "ppss.group_form", "sim.pump"} {
		m[name+"_s"] = 0
	}
	var submitUS []float64
	for _, s := range t.spans {
		dur := float64(s.End - s.Start)
		switch s.Name {
		case "wcl.submit":
			submitUS = append(submitUS, dur/1e3)
		case "ppss.join":
		default:
			m[s.Name+"_s"] += dur / 1e9
		}
	}
	m["ppss.join_ms_p50"] = orZero(median(b.joinMS))
	m["wcl.submit_us_p50"] = orZero(stats.Percentile(submitUS, 50))
	m["wcl.submit_us_p95"] = orZero(stats.Percentile(submitUS, 95))

	// Self time by layer, over the whole timed part.
	if t.profErr != nil {
		b.problem("CPU profile: %v", t.profErr)
	}
	var total float64
	for _, ns := range t.cpu {
		total += ns
	}
	for _, layer := range layers {
		share, per := 0.0, 0.0
		if total > 0 {
			share = t.cpu[layer] / total
		}
		if t.ops > 0 {
			per = t.cpu[layer] / 1e3 / float64(t.ops)
		}
		m[layer+".cpu_share"] = share
		m[layer+".cpu_us_per_op"] = per
	}
	if busy := t.rtEnd.busyCPU - t.rt0.busyCPU; busy > 0 {
		m["runtime.gc_cpu_share"] = (t.rtEnd.gcCPU - t.rt0.gcCPU) / busy
	} else {
		m["runtime.gc_cpu_share"] = 0
	}
	m["runtime.gc_cycles"] = float64(t.rtEnd.gcCycles - t.rt0.gcCycles)
	m["runtime.cpu_s"] = t.rtEnd.rusage - t.rt0.rusage
	m["runtime.cpu_over_wall"] = 0
	if wall := m["sim.pump_s"]; wall > 0 {
		m["runtime.cpu_over_wall"] = m["runtime.cpu_s"] / wall
	}

	// Work counts of the fixed part.
	r0, r1 := t.r0, t.r1
	events := r1.events - r0.events
	m["simnet.events"] = float64(events)
	m["simnet.events_per_op"] = ratio(events, ops)
	m["simnet.events_per_s"] = float64(events) / fixedWall
	m["simnet.windows"] = float64(t.windows)
	m["simnet.events_per_window"] = ratio(events, t.windows)
	m["simnet.window_wall_us_p50"] = orZero(stats.Percentile(t.winWallUS, 50))
	m["simnet.window_wall_us_p95"] = orZero(stats.Percentile(t.winWallUS, 95))
	m["simnet.pending_p50"] = orZero(stats.Percentile(t.pending, 50))
	m["simnet.pending_max"] = orZero(stats.Percentile(t.pending, 100))

	sent := r1.sent - r0.sent
	m["netem.sent"] = float64(sent)
	m["netem.drop_ratio"] = ratio(r1.dropped-r0.dropped, sent)
	m["netem.dup_injected"] = float64(r1.faults.Duplicated - r0.faults.Duplicated)
	m["netem.reordered"] = float64(r1.faults.Reordered - r0.faults.Reordered)
	m["netem.burst_dropped"] = float64(r1.faults.BurstDropped - r0.faults.BurstDropped)
	m["netem.bytes_nylon"] = float64(r1.tapNylon - r0.tapNylon)
	m["netem.bytes_wcl"] = float64(r1.tapWCL - r0.tapWCL)

	n0, n1 := r0.nylon, r1.nylon
	shuffles := n1.ShufflesInitiated - n0.ShufflesInitiated
	m["nylon.shuffle_timeout_ratio"] = ratio(n1.ShufflesTimedOut-n0.ShufflesTimedOut, shuffles)
	m["nylon.relays_per_shuffle"] = ratio(n1.RelaysForwarded-n0.RelaysForwarded, shuffles)
	m["nylon.punch_success_ratio"] = ratio(n1.PunchSuccesses-n0.PunchSuccesses, n1.PunchAttempts-n0.PunchAttempts)
	m["nylon.route_failures"] = float64(n1.RouteFailures - n0.RouteFailures)

	c0, c1 := r0.cpu, r1.cpu
	m["crypt.rsa_ops_per_op"] = ratio(c1.RSAEncs+c1.RSADecs-c0.RSAEncs-c0.RSADecs, ops)
	m["crypt.sig_ops_per_op"] = ratio(c1.Signs+c1.Verifys-c0.Signs-c0.Verifys, ops)
	m["crypt.aes_ops_per_op"] = ratio(c1.AESOps-c0.AESOps, ops)
	m["crypt.rsa_busy_share"] = (c1.RSA - c0.RSA).Seconds() / fixedWall
	m["crypt.aes_busy_share"] = (c1.AES - c0.AES).Seconds() / fixedWall

	x0, x1 := r0.wcl, r1.wcl
	m["wcl.first_try_ratio"] = ratio(x1.first-x0.first, x1.ended-x0.ended)
	m["wcl.alt_success_ratio"] = ratio(x1.alt-x0.alt, x1.ended-x0.ended)
	m["wcl.mixes_tried_per_send"] = ratio(x1.mixes-x0.mixes, x1.ended-x0.ended)
	m["wcl.cells_forwarded_per_op"] = ratio(x1.cellsFwd-x0.cellsFwd, ops)
	m["wcl.cell_fallback_ratio"] = ratio(x1.cellFallbacks-x0.cellFallbacks, x1.cellsSent-x0.cellsSent)
	m["wcl.stream_retransmit_ratio"] = ratio(x1.retransmits-x0.retransmits, x1.fragsSent-x0.fragsSent)
	m["wcl.dup_forwards"] = float64(x1.dupForwards - x0.dupForwards)
	m["wcl.dup_deliveries"] = float64(x1.dupDeliveries - x0.dupDeliveries)
	m["wcl.circuits_opened"] = float64(x1.circuitsOpened - x0.circuitsOpened)
	m["wcl.circuits_rotated"] = float64(x1.circuitsRotated - x0.circuitsRotated)

	m["ppss.exchanges_completed"] = float64(r1.ppssDone - r0.ppssDone)
	m["ppss.exchange_timeout_ratio"] = ratio(r1.ppssTimedOut-r0.ppssTimedOut, r1.ppssInit-r0.ppssInit)
	m["ppss.joins_failed"] = float64(r1.joinsFailed) // set-up included: joins happen there
}

func orZero(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}

// writeSpans writes the span list as JSON, one object per span.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	return f.Close()
}
