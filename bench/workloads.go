package main

import (
	"time"

	"whisper/internal/identity"
	"whisper/internal/netem"
)

// opKind is how one benchmark operation enters the stack.
type opKind uint8

const (
	opOneShot opKind = iota // ppss.Instance.Send: one-shot 4-node onion
	opCircuit               // ppss.Instance.SendCircuit: one data cell on a pooled circuit
	opStream                // wcl.WCL.SendStream: windowed, fragmented message
)

// clients is the number of closed-loop simulated senders of every
// messaging workload: each submits its next message from the completion
// callback of the previous one, all inside the one simulator goroutine.
const clients = 8

// groupSize is the private group of the messaging workloads: a public
// leader plus 23 invited members; the first eight members send.
const groupSize = 24

// workload describes one named benchmark workload. Sizes are the
// defaults of a full run; scaled() shrinks them for -verify and the
// smoke test.
type workload struct {
	Name string
	Why  string

	N        int  // initial population
	Shards   int  // 1 = classic engine, >1 = sharded engine
	WAN      bool // PlanetLab latency/loss model instead of the clean cluster LAN
	Faults   bool // duplication, reordering and Gilbert-Elliott burst loss on top
	Churn    bool // 1 %/min of the non-members replaced every minute
	Gossip   bool // PSS-only world, op = shuffle
	Warmup   time.Duration
	Settle   time.Duration // after group formation, for private views to fill
	Slice    time.Duration // gossip only: virtual time per throughput slice
	Drain    time.Duration // virtual time allowed for in-flight ops after the last submit
	Step     time.Duration // virtual time per RunFor call of the pump
	FixedOps int           // ops (gossip: slices) of the fixed part
	SliceOps int           // successful ops per throughput slice

	// Pool, when non-nil, supplies the identity keys; nil lets
	// sim.NewWorld generate its own, as a full run must.
	Pool *identity.Pool

	// op returns how client c sends its seq-th message and how large it
	// is (header included, at most MaxPayload). Nil on gossip-scale.
	op         func(c int, seq uint32) (opKind, int)
	MaxPayload int
	// CellsOnly keeps stream ops out of the latency sample: lossy-lan's
	// two classes differ by two orders of magnitude and a mixed
	// percentile would describe neither.
	CellsOnly bool
}

// faultModel is the paper-external pathology set of oneshot-wan and
// lossy-lan: 2 % duplication, 5 % of datagrams delayed by up to 100 ms,
// and bursts that start with probability 0.01 per datagram and end with
// probability 0.25 (mean four datagrams lost per burst, ≈3.8 % loss).
func faultModel() *netem.FaultModel {
	return &netem.FaultModel{
		DupProb:       0.02,
		ReorderProb:   0.05,
		ReorderJitter: 100 * time.Millisecond,
		Burst:         &netem.GilbertElliott{PGoodBad: 0.01, PBadGood: 0.25},
	}
}

func (w *workload) model() netem.LatencyModel {
	if w.WAN {
		return netem.DefaultPlanetLab()
	}
	return netem.Cluster{}
}

// workloads is the benchmark: five workloads, each chosen because one
// set of layers does the work in it and another set does none, so a
// change to a layer has a workload that shows it and one that must not
// move. BENCHMARK.json repeats the names and reasons; the smoke test
// keeps the two in step.
var workloads = []*workload{
	{
		Name: "gossip-scale",
		Why:  "100k-node PSS-only sharded world: simnet, netem, nat, pss, nylon and the Go GC do all the work, crypt/wcl/ppss none",
		N:    100_000, Shards: 8, WAN: true, Gossip: true,
		Warmup: 30 * time.Second, Slice: 500 * time.Millisecond,
		FixedOps: 60, // slices: 30 s of virtual time
	},
	{
		Name: "oneshot-wan",
		Why:  "paper-faithful one-shot onions under PlanetLab loss, faults and churn: RSA dominates host time, retry/alt-path sets the tail",
		N:    300, Shards: 1, WAN: true, Faults: true, Churn: true,
		Warmup: 4 * time.Minute, Settle: 5 * time.Minute, Drain: 2 * time.Minute, Step: 5 * time.Second,
		FixedOps: 2000, SliceOps: 100,
		op:         func(int, uint32) (opKind, int) { return opOneShot, 1024 },
		MaxPayload: 1024,
	},
	{
		Name: "circuit-lan",
		Why:  "smallest-packet forwarding on a clean LAN: per-cell AES, wire, dedup, nat/netem and simnet work, RSA only at set-up and rotation",
		N:    300, Shards: 1,
		Warmup: 4 * time.Minute, Settle: 5 * time.Minute, Drain: 30 * time.Second, Step: 100 * time.Millisecond,
		FixedOps: 80_000, SliceOps: 4000,
		op: func(_ int, seq uint32) (opKind, int) {
			if seq%2 == 0 {
				return opCircuit, 64
			}
			return opCircuit, 1024
		},
		MaxPayload: 1024,
	},
	{
		Name: "stream-lan",
		Why:  "256 KiB streamed messages on a clean LAN: bytes/s rather than packets/s, stream window machinery, AES bulk, copies and GC; zero retransmits",
		N:    300, Shards: 1,
		Warmup: 4 * time.Minute, Settle: 5 * time.Minute, Drain: 30 * time.Second, Step: 100 * time.Millisecond,
		FixedOps: 800, SliceOps: 40,
		op:         func(int, uint32) (opKind, int) { return opStream, 256 << 10 },
		MaxPayload: 256 << 10,
	},
	{
		Name: "lossy-lan",
		Why:  "cells and 64 KiB streams under duplication, reordering and burst loss: the only workload where cell fallback, stream retransmit and exit dedup run",
		N:    300, Shards: 1, Faults: true,
		Warmup: 4 * time.Minute, Settle: 5 * time.Minute, Drain: 2 * time.Minute, Step: 100 * time.Millisecond,
		FixedOps: 6000, SliceOps: 300,
		// Every sender interleaves the two classes, eleven cells then one
		// stream. Were they dealt to different senders, a sender stalled
		// on a 5 s cell timeout would shift the mix of the ops completing
		// meanwhile towards streams, fifty times dearer, and ops_per_s
		// would measure that mix (it moved by ±10 % between seeds).
		op: func(_ int, seq uint32) (opKind, int) {
			if seq%12 == 11 {
				return opStream, 64 << 10
			}
			return opCircuit, 1024
		},
		MaxPayload: 64 << 10,
		CellsOnly:  true,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}
