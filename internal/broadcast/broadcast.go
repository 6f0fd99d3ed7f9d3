// Package broadcast implements gossip-based dissemination inside a
// private group: application-level multicast, the first PSS application
// the paper lists (§II-B, citing lpbcast [5]) and the machinery behind
// its pay-per-view streaming motivation (§I). A message published by
// any member reaches the whole group epidemically through the private
// views, every hop travelling over a confidential WCL route — so the
// multicast tree, like the membership, is invisible to outsiders.
//
// The protocol is infect-and-die with a bounded relay count: each
// member forwards a freshly seen message to Fanout random private-view
// peers and decrements a hop budget; duplicate receptions are dropped
// via a bounded seen-cache.
package broadcast

import (
	"time"

	"whisper/internal/identity"
	"whisper/internal/obs"
	"whisper/internal/ppss"
	"whisper/internal/transport"
	"whisper/internal/wire"
)

// Tag is the PPSS payload tag of broadcast messages.
const Tag uint8 = 0x60

// Config parameterizes the dissemination.
type Config struct {
	// Fanout is the number of peers each member forwards a fresh
	// message to (default 4 ≈ ln(group size) + margin).
	Fanout int
	// Hops bounds the relay depth (default 8; log-diameter groups need
	// far fewer).
	Hops int
	// CacheSize bounds the duplicate-suppression cache (default 1024).
	CacheSize int
	// Obs is the scope broadcast instruments register under. Nil
	// defaults to the instance's group scope.
	Obs *obs.Scope
}

func (c Config) withDefaults() Config {
	if c.Fanout == 0 {
		c.Fanout = 4
	}
	if c.Hops == 0 {
		c.Hops = 8
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	return c
}

// Stats counts dissemination events: the broadcaster bumps them in
// place and Broadcaster.Stats returns a copy. The tags name the
// exported metrics (see obs.Register).
type Stats struct {
	Published  uint64 `obs:"broadcast_published_total"`
	Delivered  uint64 `obs:"broadcast_delivered_total"`
	Duplicates uint64 `obs:"broadcast_duplicates_total"`
	Forwards   uint64 `obs:"broadcast_forwards_total"`
	// ForwardBytes is the encoded bytes of all forwards — the relay
	// bandwidth the full-group flood costs, which the pub/sub
	// experiment compares its filtered routing against.
	ForwardBytes uint64 `obs:"broadcast_forward_bytes_total"`
}

// Broadcaster is the per-member dissemination endpoint of one group.
type Broadcaster struct {
	inst *ppss.Instance
	rt   transport.Transport
	cfg  Config

	seen  map[uint64]struct{}
	order []uint64 // FIFO for cache eviction

	// OnDeliver receives each unique message exactly once, including
	// the member's own publications.
	OnDeliver func(origin identity.NodeID, payload []byte)

	st Stats
}

// New attaches a broadcaster to a group instance (subscribing to Tag).
func New(inst *ppss.Instance, cfg Config) *Broadcaster {
	cfg = cfg.withDefaults()
	if cfg.Obs == nil {
		cfg.Obs = inst.Obs()
	}
	b := &Broadcaster{
		inst: inst,
		rt:   inst.Runtime(),
		cfg:  cfg,
		seen: make(map[uint64]struct{}),
	}
	obs.Register(cfg.Obs, &b.st)
	inst.Subscribe(Tag, b.handle)
	return b
}

// Stats returns a snapshot of the broadcaster's counters.
func (b *Broadcaster) Stats() Stats { return b.st }

// Publish disseminates payload to the whole group. The publisher
// delivers to itself immediately.
func (b *Broadcaster) Publish(payload []byte) {
	id := b.rt.Rand().Uint64()
	obs.Inc(&b.st.Published)
	b.remember(id)
	obs.Inc(&b.st.Delivered)
	if b.OnDeliver != nil {
		b.OnDeliver(b.inst.SelfEntry().ID, payload)
	}
	b.forward(message{ID: id, Origin: b.inst.SelfEntry().ID, Hops: uint8(b.cfg.Hops), Payload: payload})
}

type message struct {
	ID      uint64
	Origin  identity.NodeID
	Hops    uint8
	Payload []byte
}

func (m message) encode() []byte {
	w := wire.NewWriter(1 + 8 + 8 + 1 + 4 + len(m.Payload))
	w.U8(Tag)
	w.U64(m.ID)
	w.U64(uint64(m.Origin))
	w.U8(m.Hops)
	w.Bytes32(m.Payload)
	return w.Bytes()
}

func decode(payload []byte) (message, bool) {
	r := wire.NewReader(payload)
	if r.U8() != Tag {
		return message{}, false
	}
	var m message
	m.ID = r.U64()
	m.Origin = identity.NodeID(r.U64())
	m.Hops = r.U8()
	m.Payload = r.Bytes32()
	return m, r.Err() == nil
}

func (b *Broadcaster) handle(_ ppss.Entry, payload []byte) {
	m, ok := decode(payload)
	if !ok {
		return
	}
	if _, dup := b.seen[m.ID]; dup {
		obs.Inc(&b.st.Duplicates)
		return
	}
	b.remember(m.ID)
	obs.Inc(&b.st.Delivered)
	if b.OnDeliver != nil {
		b.OnDeliver(m.Origin, m.Payload)
	}
	if m.Hops > 0 {
		m.Hops--
		b.forward(m)
	}
}

// forward infects Fanout random private-view peers. Sends go out in
// selection order (not map order) so simulated runs stay deterministic.
func (b *Broadcaster) forward(m message) {
	var peers []ppss.Entry
	picked := map[identity.NodeID]bool{}
	for tries := 0; tries < b.cfg.Fanout*3 && len(peers) < b.cfg.Fanout; tries++ {
		e, ok := b.inst.GetPeer()
		if !ok {
			break
		}
		if e.ID == m.Origin || picked[e.ID] {
			continue
		}
		picked[e.ID] = true
		peers = append(peers, e)
	}
	enc := m.encode()
	for _, e := range peers {
		obs.Inc(&b.st.Forwards)
		obs.Add(&b.st.ForwardBytes, uint64(len(enc)))
		b.inst.Send(e, enc, nil)
	}
}

func (b *Broadcaster) remember(id uint64) {
	b.seen[id] = struct{}{}
	b.order = append(b.order, id)
	for len(b.order) > b.cfg.CacheSize {
		delete(b.seen, b.order[0])
		b.order = b.order[1:]
	}
}

// ExpectedLatency estimates dissemination time for a group of size n:
// O(log n) forwarding waves, each one WCL route deep.
func ExpectedLatency(n int, hopRTT time.Duration) time.Duration {
	waves := 1
	for c := 1; c < n; c *= 2 {
		waves++
	}
	return time.Duration(waves) * hopRTT
}
