package main

import (
	"math/rand"
	"runtime"
	"time"

	"whisper/internal/crypt"
	"whisper/internal/dedup"
	"whisper/internal/identity"
	"whisper/internal/nat"
	"whisper/internal/netem"
	"whisper/internal/nylon"
	"whisper/internal/pss"
	"whisper/internal/simnet"
	"whisper/internal/wire"
)

// directCase is one exported function timed in isolation on inputs
// shaped like the workloads': the cost a layer has per call, next to
// the share it has of a run.
type directCase struct {
	Name   string        // metric of the median time per call
	Allocs string        // sibling metric: heap allocations per call (or sub-unit)
	Unit   time.Duration // the time metric's unit
	Per    float64       // sub-units per call (KiB, messages); 0 means 1
	Iters  int           // calls per batch
	// Make builds the inputs and returns the call to time.
	Make func() (func(), error)
}

// directBatches is the number of timed batches behind each median.
const directBatches = 30

// directSink keeps results alive so the calls are not optimized away.
var directSink any

// runDirect times every direct case and adds its two metrics to m.
func runDirect(m map[string]float64, batches int) error {
	for _, c := range directCases() {
		call, err := c.Make()
		if err != nil {
			return err
		}
		per := c.Per
		if per == 0 {
			per = 1
		}
		call() // warm caches and lazily built state
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		times := make([]float64, 0, batches)
		for b := 0; b < batches; b++ {
			t := time.Now()
			for i := 0; i < c.Iters; i++ {
				call()
			}
			times = append(times, float64(time.Since(t))/float64(c.Unit)/float64(c.Iters)/per)
		}
		runtime.ReadMemStats(&ms)
		m[c.Name] = median(times)
		m[c.Allocs] = float64(ms.Mallocs-mallocs) / float64(batches*c.Iters) / per
	}
	return nil
}

// onionPath is the S → A → B → D path a one-shot send constructs: three
// layers, the address blobs of wcl's hop encoding (endpoint+ID for B,
// ID for D), the 32-byte content key as the innermost payload.
type onionPath struct {
	keys  []crypt.PrivateKey
	hops  []crypt.Hop
	k     []byte
	onion []byte
}

func newOnionPath(suite crypt.SuiteID) (*onionPath, error) {
	p := &onionPath{}
	for _, addr := range [][]byte{nil, make([]byte, 15), make([]byte, 9)} {
		k, err := crypt.GenerateKey(suite, identity.DefaultKeyBits)
		if err != nil {
			return nil, err
		}
		p.keys = append(p.keys, k)
		p.hops = append(p.hops, crypt.Hop{Pub: k.Public(), Addr: addr})
	}
	var err error
	if p.k, err = crypt.NewSymKey(); err != nil {
		return nil, err
	}
	p.onion, err = crypt.BuildOnion(nil, p.hops, p.k)
	return p, err
}

// cellKeys are the three hop keys of a circuit.
func cellKeys() ([][]byte, error) {
	secret, err := crypt.NewCircuitSecret()
	if err != nil {
		return nil, err
	}
	return crypt.DeriveCircuitKeys(secret, 3)
}

// natFixture is one host behind a port-restricted NAT talking to one
// public host over a clean LAN.
type natFixture struct {
	s              *simnet.Sim
	nw             *netem.Network
	dev            *nat.Device
	inside, remote netem.Endpoint
	ext            netem.Endpoint
	payload        []byte
}

func newNATFixture() *natFixture {
	f := &natFixture{s: simnet.New(3), payload: make([]byte, 256)}
	f.nw = netem.New(f.s, netem.Cluster{})
	f.inside = netem.Endpoint{IP: netem.PrivateBase + 1, Port: 1}
	f.remote = netem.Endpoint{IP: 2, Port: 1}
	f.nw.Attach(f.remote.IP, netem.HandlerFunc(func(netem.Datagram) {}))
	f.dev = nat.NewDevice(f.nw, nat.PortRestrictedCone, 9, 0)
	f.dev.AttachInside(f.inside.IP, netem.HandlerFunc(func(netem.Datagram) {}))
	f.dev.Send(netem.Datagram{Src: f.inside, Dst: f.remote, Payload: f.payload})
	f.s.Run()
	f.ext, _ = f.dev.ExternalEndpoint(f.inside)
	return f
}

// drain delivers what is queued once enough has piled up, so delivery
// is part of the timed cost without a Run call per datagram.
func (f *natFixture) drain() {
	if f.s.Pending() > 4096 {
		f.s.Run()
	}
}

// viewFixture is a full Nylon view (10) and a received buffer (5), the
// shape of every shuffle.
type viewFixture struct {
	rng                          *rand.Rand
	merged, mine, sent, received []pss.Entry[nylon.Descriptor]
	opts                         pss.SelectOpts
	view                         *pss.View[nylon.Descriptor]
}

func newViewFixture() *viewFixture {
	f := &viewFixture{rng: rand.New(rand.NewSource(2)), opts: pss.SelectOpts{Capacity: 10, Self: 99, MinPublic: 3}}
	for i := 0; i < 20; i++ {
		f.merged = append(f.merged, pss.Entry[nylon.Descriptor]{
			Val: nylon.Descriptor{ID: identity.NodeID(i + 1), Public: i%3 == 0},
			Age: uint16(f.rng.Intn(30)),
		})
	}
	f.mine, f.sent, f.received = f.merged[:10], f.merged[:5], f.merged[10:15]
	f.view = pss.NewView[nylon.Descriptor](10)
	f.view.Replace(f.mine)
	return f
}

// crossPerShard is how many messages every shard sends its neighbour
// per window in the exchange case.
const crossPerShard = 64

// eightShards builds an engine whose eight shards each run one event
// per 1 ms window; cross > 0 makes that event send cross messages to
// the next shard.
func eightShards(cross int) *simnet.Sharded {
	d := simnet.NewSharded(5, 8, time.Millisecond)
	for i := 0; i < 8; i++ {
		i := i
		d.Shard(i).Every(time.Millisecond, func() {
			at := d.Shard(i).Now() + time.Millisecond
			for k := 0; k < cross; k++ {
				d.Inject(i, (i+1)%8, at, func() {})
			}
		})
	}
	return d
}

func directCases() []directCase {
	msg := make([]byte, 1024)
	var cases []directCase

	// crypt: the source's per-message work of a one-shot send (1 KiB
	// content sealed under a fresh key, that key wrapped in a 3-hop
	// onion) and one hop's peel, on both suites. The two cases of a
	// suite share one set of keys.
	for _, s := range []struct {
		id     crypt.SuiteID
		prefix string
	}{{crypt.SuiteRSA2048, "crypt."}, {crypt.SuiteECC, "crypt.ecc_"}} {
		var path *onionPath
		get := func() (*onionPath, error) {
			if path != nil {
				return path, nil
			}
			var err error
			path, err = newOnionPath(s.id)
			return path, err
		}
		cases = append(cases,
			directCase{Name: s.prefix + "onion_build_us", Allocs: s.prefix + "onion_build_allocs", Unit: time.Microsecond, Iters: 10,
				Make: func() (func(), error) {
					p, err := get()
					if err != nil {
						return nil, err
					}
					return func() {
						ct, _ := crypt.SealSym(nil, p.k, msg)
						o, _ := crypt.BuildOnion(nil, p.hops, p.k)
						directSink = [2][]byte{ct, o}
					}, nil
				}},
			directCase{Name: s.prefix + "onion_peel_us", Allocs: s.prefix + "onion_peel_allocs", Unit: time.Microsecond, Iters: 10,
				Make: func() (func(), error) {
					p, err := get()
					if err != nil {
						return nil, err
					}
					return func() { _, directSink, _, _ = crypt.Peel(nil, p.keys[0], p.onion) }, nil
				}},
		)
	}

	cases = append(cases,
		directCase{Name: "crypt.cell_seal_ns", Allocs: "crypt.cell_seal_allocs", Unit: time.Nanosecond, Iters: 500,
			Make: func() (func(), error) {
				keys, err := cellKeys()
				return func() { directSink, _ = crypt.SealCell(nil, keys, msg) }, err
			}},
		directCase{Name: "crypt.cell_open_ns", Allocs: "crypt.cell_open_allocs", Unit: time.Nanosecond, Iters: 1000,
			Make: func() (func(), error) {
				keys, err := cellKeys()
				if err != nil {
					return nil, err
				}
				cell, err := crypt.SealCell(nil, keys, msg)
				return func() { directSink, _ = crypt.OpenSym(nil, keys[0], cell) }, err
			}},
		directCase{Name: "crypt.sym_seal_ns_per_kib", Allocs: "crypt.sym_seal_allocs", Unit: time.Nanosecond, Per: 64, Iters: 50,
			Make: func() (func(), error) {
				k, err := crypt.NewSymKey()
				bulk := make([]byte, 64<<10)
				return func() { directSink, _ = crypt.SealSym(nil, k, bulk) }, err
			}},
	)

	// wire: one view entry with a padded key blob, the unit both gossip
	// layers encode per shuffle.
	blob := make([]byte, 140)
	encode := func() []byte {
		w := wire.NewWriter(256)
		w.U64(12345)
		w.U32(99)
		w.U16(42)
		w.U8(3)
		w.Padded(blob, 160)
		return w.Bytes()
	}
	cases = append(cases,
		directCase{Name: "wire.encode_entry_ns", Allocs: "wire.encode_entry_allocs", Unit: time.Nanosecond, Iters: 5000,
			Make: func() (func(), error) { return func() { directSink = encode() }, nil }},
		directCase{Name: "wire.decode_entry_ns", Allocs: "wire.decode_entry_allocs", Unit: time.Nanosecond, Iters: 5000,
			Make: func() (func(), error) {
				entry := encode()
				return func() {
					r := wire.NewReader(entry)
					r.U64()
					r.U32()
					r.U16()
					r.U8()
					directSink = r.Padded(160)
				}, nil
			}},
	)

	cases = append(cases,
		directCase{Name: "pss.select_ns", Allocs: "pss.select_allocs", Unit: time.Nanosecond, Iters: 2000,
			Make: func() (func(), error) {
				f := newViewFixture()
				return func() { directSink = pss.Select(f.merged, f.opts) }, nil
			}},
		directCase{Name: "pss.merge_ns", Allocs: "pss.merge_allocs", Unit: time.Nanosecond, Iters: 2000,
			Make: func() (func(), error) {
				f := newViewFixture()
				return func() {
					f.view.Replace(f.mine)
					pss.MergeCyclon(f.view, f.sent, f.received, f.opts)
				}, nil
			}},
		directCase{Name: "pss.sample_into_ns", Allocs: "pss.sample_into_allocs", Unit: time.Nanosecond, Iters: 5000,
			Make: func() (func(), error) {
				f := newViewFixture()
				scratch := make([]pss.Entry[nylon.Descriptor], 0, 8)
				return func() { scratch = f.view.SampleInto(scratch[:0], f.rng, 4, 7) }, nil
			}},
	)

	// nat and netem: one datagram out through the NAT (mapping lookup,
	// filter refresh, netem send and delivery), one in (port lookup,
	// filter check, rewrite), and the bare netem path.
	cases = append(cases,
		directCase{Name: "nat.send_out_ns", Allocs: "nat.send_out_allocs", Unit: time.Nanosecond, Iters: 2000,
			Make: func() (func(), error) {
				f := newNATFixture()
				return func() {
					f.dev.Send(netem.Datagram{Src: f.inside, Dst: f.remote, Payload: f.payload})
					f.drain()
				}, nil
			}},
		directCase{Name: "nat.filter_in_ns", Allocs: "nat.filter_in_allocs", Unit: time.Nanosecond, Iters: 5000,
			Make: func() (func(), error) {
				f := newNATFixture()
				return func() { f.dev.HandleDatagram(netem.Datagram{Src: f.remote, Dst: f.ext, Payload: f.payload}) }, nil
			}},
		directCase{Name: "netem.send_deliver_ns", Allocs: "netem.send_deliver_allocs", Unit: time.Nanosecond, Iters: 2000,
			Make: func() (func(), error) {
				f := newNATFixture()
				src := netem.Endpoint{IP: 1, Port: 1}
				return func() {
					f.nw.Send(netem.Datagram{Src: src, Dst: f.remote, Payload: f.payload})
					f.drain()
				}, nil
			}},
	)

	// simnet: schedule-and-pop of one event; one synchronization window
	// over eight shards that run a single event each; and the barrier
	// exchange per cross-shard message.
	cases = append(cases,
		directCase{Name: "simnet.schedule_pop_ns", Allocs: "simnet.schedule_pop_allocs", Unit: time.Nanosecond, Iters: 5000,
			Make: func() (func(), error) {
				s, i := simnet.New(4), 0
				return func() {
					i++
					s.After(time.Duration(i%1000)*time.Microsecond, func() {})
					if s.Pending() > 4096 {
						s.Run()
					}
				}, nil
			}},
		directCase{Name: "simnet.window_overhead_us", Allocs: "simnet.window_overhead_allocs", Unit: time.Microsecond, Iters: 200,
			Make: func() (func(), error) {
				d := eightShards(0)
				return func() { d.RunFor(time.Millisecond) }, nil
			}},
		directCase{Name: "simnet.exchange_ns_per_msg", Allocs: "simnet.exchange_allocs", Unit: time.Nanosecond, Per: 8 * crossPerShard, Iters: 50,
			Make: func() (func(), error) {
				d := eightShards(crossPerShard)
				return func() { d.RunFor(time.Millisecond) }, nil
			}},
	)

	// dedup: the LRU every WCL hop consults per forward, half hits and
	// half inserts that evict.
	cases = append(cases,
		directCase{Name: "dedup.seen_ns", Allocs: "dedup.seen_allocs", Unit: time.Nanosecond, Iters: 5000,
			Make: func() (func(), error) {
				seen, i := dedup.New[uint64](2048), uint64(0)
				return func() {
					i++
					seen.Add(i - (i+1)%2) // odd i: new key; even i: the one before
				}, nil
			}},
	)
	return cases
}
