// Package sizeest estimates the size of a private group from within,
// without any roster: the gossip-based counting protocol of §II-B's
// citations ([8], [11]) run over confidential WCL routes. The group
// leader seeds each epoch with value 1 and every other member with 0;
// pairwise averaging over the private views converges every member's
// value to 1/n, so 1/value estimates the membership size — a quantity
// that remains invisible to anyone outside the group.
package sizeest

import (
	"math"
	"time"

	"whisper/internal/aggregate"
	"whisper/internal/ppss"
	"whisper/internal/transport"
	"whisper/internal/wire"
)

// Tag is the PPSS payload tag of aggregation messages.
const Tag uint8 = 0x68

// Config parameterizes the estimator.
type Config struct {
	// Cycle is the exchange period (default 30 s).
	Cycle time.Duration
	// Epoch is the restart period; estimates refresh once per epoch and
	// track membership changes (default 20×Cycle).
	Epoch time.Duration
}

func (c Config) withDefaults() Config {
	if c.Cycle == 0 {
		c.Cycle = 30 * time.Second
	}
	if c.Epoch == 0 {
		c.Epoch = 20 * c.Cycle
	}
	return c
}

// Estimator runs the counting protocol for one group member.
type Estimator struct {
	inst *ppss.Instance
	rt   transport.Transport
	cfg  Config

	state    *aggregate.State
	epoch    uint64
	lastGood float64
	ticker   transport.Ticker
	stopped  bool

	// Exchanges counts completed pairwise averaging steps.
	Exchanges uint64
}

// New attaches an estimator to a group instance (subscribing to Tag)
// and starts it.
func New(inst *ppss.Instance, cfg Config) *Estimator {
	e := &Estimator{
		inst: inst,
		rt:   inst.Runtime(),
		cfg:  cfg.withDefaults(),
	}
	e.restart()
	inst.Subscribe(Tag, e.handle)
	e.ticker = e.rt.EveryJitter(e.cfg.Cycle, e.cfg.Cycle/2, e.cycle)
	return e
}

// Stop halts the estimator.
func (e *Estimator) Stop() {
	if e.stopped {
		return
	}
	e.stopped = true
	e.ticker.Stop()
	e.inst.Subscribe(Tag, nil)
}

// Estimate returns the group-size estimate of the last completed
// epoch, or the running epoch's value until one has completed. ok is
// false until the first epoch has made progress.
func (e *Estimator) Estimate() (float64, bool) {
	if e.lastGood > 0 {
		return e.lastGood, true
	}
	if cur := e.currentEstimate(); cur > 0 && !math.IsInf(cur, 0) {
		return cur, true
	}
	return 0, false
}

func (e *Estimator) currentEstimate() float64 {
	v := e.state.Value()
	if v <= 0 {
		return 0
	}
	return aggregate.SizeEstimate(v)
}

// epochOf derives the global epoch number from virtual time, so all
// members restart in loose synchrony without coordination.
func (e *Estimator) epochOf() uint64 {
	return uint64(e.rt.Now() / e.cfg.Epoch)
}

// roll closes the running epoch once virtual time has left it, keeping
// its estimate, and starts the next.
func (e *Estimator) roll() {
	if e.epochOf() == e.epoch {
		return
	}
	if cur := e.currentEstimate(); cur > 0 && !math.IsInf(cur, 0) {
		e.lastGood = cur
	}
	e.restart()
}

// restart begins a new epoch: the leader seeds 1, everyone else 0.
func (e *Estimator) restart() {
	v := 0.0
	if e.inst.IsLeader() {
		v = 1.0
	}
	e.state = aggregate.New(aggregate.Average, v)
	e.epoch = e.epochOf()
}

func (e *Estimator) cycle() {
	if e.stopped {
		return
	}
	e.roll()
	peer, ok := e.inst.GetPeer()
	if !ok {
		return
	}
	e.inst.Send(peer, e.encodeMsg(false), nil)
}

func (e *Estimator) encodeMsg(isReply bool) []byte {
	w := wire.NewWriter(19)
	w.U8(Tag)
	w.Bool(isReply)
	w.U64(e.epoch)
	w.U64(math.Float64bits(e.state.Value()))
	return w.Bytes()
}

// handle performs the push-pull averaging step: both sides end up with
// the pairwise mean, preserving the global sum (the invariant that
// makes 1/value converge to the group size).
func (e *Estimator) handle(from ppss.Entry, payload []byte) {
	if e.stopped {
		return
	}
	r := wire.NewReader(payload)
	if r.U8() != Tag {
		return
	}
	isReply := r.Bool()
	epoch := r.U64()
	val := math.Float64frombits(r.U64())
	if r.Err() != nil || math.IsNaN(val) || math.IsInf(val, 0) || val < 0 {
		return
	}
	e.roll()
	if epoch != e.epoch {
		return // stale or early epoch; ignore to preserve mass
	}
	if !isReply {
		// Reply with our pre-merge value so both sides converge to the
		// same mean.
		e.inst.Send(from, e.encodeMsg(true), nil)
	}
	e.state.Absorb(val)
	e.Exchanges++
}
