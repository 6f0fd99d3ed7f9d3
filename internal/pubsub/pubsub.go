package pubsub

import (
	"fmt"
	"sort"
	"time"

	"whisper/internal/dedup"
	"whisper/internal/identity"
	"whisper/internal/obs"
	"whisper/internal/ppss"
	"whisper/internal/transport"
)

// Config parameterizes one group's pub/sub endpoint.
type Config struct {
	// FilterBits is m, the subscription filter size in bits (default 256).
	FilterBits int
	// FilterHashes is k, the probes per tag (default 4).
	FilterHashes int
	// Hops bounds the relay depth of one envelope (default 4).
	Hops int
	// MatchFanout caps the digest-matched forwards per envelope per
	// relay (default 8).
	MatchFanout int
	// Spray is the number of extra random view peers the publisher
	// seeds an envelope to, covering subscribers whose digest has not
	// reached it yet. Relays never spray — they forward only toward
	// matching filters — so the flood stays bounded.
	Spray int
	// CacheSize bounds the per-topic duplicate-suppression LRU
	// (default 2048 envelopes).
	CacheSize int
	// Obs is the scope pub/sub instruments register under. Nil defaults
	// to the instance's group scope.
	Obs *obs.Scope
}

func (c Config) withDefaults() Config {
	if c.FilterBits == 0 {
		c.FilterBits = DefaultFilterBits
	}
	if c.FilterHashes == 0 {
		c.FilterHashes = DefaultFilterHashes
	}
	if c.Hops == 0 {
		c.Hops = 4
	}
	if c.MatchFanout == 0 {
		c.MatchFanout = 8
	}
	if c.Spray == 0 {
		c.Spray = 2
	}
	if c.CacheSize == 0 {
		c.CacheSize = 2048
	}
	return c
}

// Stats counts pub/sub events: the endpoint bumps them in place and
// PubSub.Stats returns a copy. The tags name the exported metrics (see
// obs.Register).
type Stats struct {
	Published      uint64 `obs:"pubsub_published_total"`
	Delivered      uint64 `obs:"pubsub_delivered_total"`
	Duplicates     uint64 `obs:"pubsub_duplicates_total"`
	Matched        uint64 `obs:"pubsub_matched_total"`
	Forwards       uint64 `obs:"pubsub_forwards_total"`
	BytesForwarded uint64 `obs:"pubsub_forward_bytes_total"`
	FalsePositives uint64 `obs:"pubsub_false_positives_total"`
	Expired        uint64 `obs:"pubsub_expired_total"`
	Undecryptable  uint64 `obs:"pubsub_undecryptable_total"`
}

// envKey identifies one envelope in the dedup LRU: the topic tag keeps
// the suppression per-topic, the publisher-drawn ID disambiguates
// within it.
type envKey struct {
	topic TopicTag
	id    uint64
}

// topicState is one local subscription.
type topicState struct {
	name string
	key  []byte
}

// cachedFilter memoizes a decoded peer digest by version, so matching
// an envelope against the digest table costs bit probes, not parses.
type cachedFilter struct {
	version uint32
	filter  *Filter
}

// PubSub is one member's topic pub/sub endpoint on one private group.
// It is not safe for concurrent use; like every protocol object in
// this repository it lives on its node's single dispatch goroutine.
type PubSub struct {
	inst *ppss.Instance
	rt   transport.Transport
	cfg  Config

	topics  map[TopicTag]*topicState
	filter  *Filter
	version uint32

	seen    *dedup.Seen[envKey]
	decoded map[identity.NodeID]cachedFilter

	// OnDeliver receives each subscribed message exactly once,
	// including the member's own publications to subscribed topics.
	OnDeliver func(topic string, payload []byte)

	st           Stats
	matchLatency *obs.Histogram
}

// New attaches a pub/sub endpoint to a group instance. Until the first
// Subscribe or Publish the endpoint is passive: no digest is gossiped
// and no envelope is sent, so an attached-but-unused endpoint is
// indistinguishable from no endpoint at all (the zero-behavior
// contract the disabled-path test pins).
func New(inst *ppss.Instance, cfg Config) *PubSub {
	cfg = cfg.withDefaults()
	if cfg.Obs == nil {
		cfg.Obs = inst.Obs()
	}
	p := &PubSub{
		inst:         inst,
		rt:           inst.Runtime(),
		cfg:          cfg,
		topics:       make(map[TopicTag]*topicState),
		filter:       NewFilter(cfg.FilterBits, cfg.FilterHashes),
		seen:         dedup.New[envKey](cfg.CacheSize),
		decoded:      make(map[identity.NodeID]cachedFilter),
		matchLatency: cfg.Obs.Histogram("pubsub_match_ms"),
	}
	obs.Register(cfg.Obs, &p.st)
	inst.Subscribe(Tag, p.handle)
	return p
}

// Close detaches the endpoint from its instance.
func (p *PubSub) Close() { p.inst.Subscribe(Tag, nil) }

// Stats returns a snapshot of the endpoint's counters.
func (p *PubSub) Stats() Stats { return p.st }

// Topics returns the subscribed topic names, sorted.
func (p *PubSub) Topics() []string {
	out := make([]string, 0, len(p.topics))
	for _, ts := range p.topics {
		out = append(out, ts.name)
	}
	sort.Strings(out)
	return out
}

// Filter returns the member's own subscription filter (live, not a
// copy).
func (p *PubSub) Filter() *Filter { return p.filter }

// Subscribe registers interest in a topic: the topic key is derived,
// the tag enters the local filter, and the refreshed digest is handed
// to the PPSS for gossip piggybacking.
func (p *PubSub) Subscribe(topic string) error {
	tag := HashTopic(topic)
	if _, ok := p.topics[tag]; ok {
		return nil
	}
	key, err := TopicKey(p.inst.GroupRootKey(), topic)
	if err != nil {
		return fmt.Errorf("pubsub: deriving topic key: %w", err)
	}
	p.topics[tag] = &topicState{name: topic, key: key}
	p.filter.Add(tag)
	p.pushDigest()
	return nil
}

// Unsubscribe drops a topic. Bloom filters cannot unset bits, so the
// filter is rebuilt from the remaining subscriptions.
func (p *PubSub) Unsubscribe(topic string) {
	tag := HashTopic(topic)
	if _, ok := p.topics[tag]; !ok {
		return
	}
	delete(p.topics, tag)
	p.filter = NewFilter(p.cfg.FilterBits, p.cfg.FilterHashes)
	for t := range p.topics {
		p.filter.Add(t)
	}
	p.pushDigest()
}

// pushDigest versions the filter and hands it to the PPSS instance for
// shuffle piggybacking.
func (p *PubSub) pushDigest() {
	p.version++
	p.filter.Version = p.version
	p.inst.SetSelfDigest(p.version, p.filter.Encode())
}

// Publish seals payload under the topic key and seeds the envelope
// toward matching subscribers (plus a small random spray, covering
// members whose digest has not gossiped here yet). The publisher need
// not be subscribed to the topic; if it is, it delivers to itself.
func (p *PubSub) Publish(topic string, payload []byte) error {
	tag := HashTopic(topic)
	key, err := TopicKey(p.inst.GroupRootKey(), topic)
	if err != nil {
		return fmt.Errorf("pubsub: deriving topic key: %w", err)
	}
	ct, err := sealTopic(p, key, payload)
	if err != nil {
		return fmt.Errorf("pubsub: sealing payload: %w", err)
	}
	env := Envelope{
		ID:    p.rt.Rand().Uint64(),
		Topic: tag,
		Hops:  uint8(p.cfg.Hops),
		Ct:    ct,
	}
	p.seen.Add(envKey{topic: tag, id: env.ID})
	obs.Inc(&p.st.Published)
	if ts := p.topics[tag]; ts != nil {
		obs.Inc(&p.st.Delivered)
		if p.OnDeliver != nil {
			p.OnDeliver(ts.name, payload)
		}
	}
	p.forward(env, p.inst.SelfEntry().ID, p.cfg.Spray)
	return nil
}

// handle processes one received envelope: dedup, local delivery when
// subscribed, and filter-matched relaying while the hop budget lasts.
func (p *PubSub) handle(from ppss.Entry, payload []byte) {
	env, ok := DecodeEnvelope(payload)
	if !ok {
		return
	}
	start := time.Now()
	if p.seen.Add(envKey{topic: env.Topic, id: env.ID}) {
		obs.Inc(&p.st.Duplicates)
		return
	}
	if ts := p.topics[env.Topic]; ts != nil {
		pt, err := openTopic(p, ts.key, env.Ct)
		if err != nil {
			obs.Inc(&p.st.Undecryptable)
		} else {
			obs.Inc(&p.st.Delivered)
			if p.OnDeliver != nil {
				p.OnDeliver(ts.name, pt)
			}
		}
	} else if p.filter.Test(env.Topic) {
		// Our own filter matched a topic we do not subscribe to: a
		// real-traffic measurement of the bloom false-positive rate.
		obs.Inc(&p.st.FalsePositives)
	}
	if env.Hops == 0 {
		obs.Inc(&p.st.Expired)
	} else {
		env.Hops--
		p.forward(env, from.ID, 0)
	}
	p.matchLatency.Observe(float64(time.Since(start).Microseconds()) / 1000)
}

// peerFilter returns the decoded filter of one gossip digest, cached
// by version.
func (p *PubSub) peerFilter(d ppss.SubDigest) *Filter {
	if c, ok := p.decoded[d.Owner]; ok && c.version == d.Version {
		return c.filter
	}
	f, err := DecodeFilter(d.Blob)
	if err != nil {
		return nil
	}
	p.decoded[d.Owner] = cachedFilter{version: d.Version, filter: f}
	return f
}

// forward relays an envelope toward every digest whose filter matches
// the topic (bounded by MatchFanout), over pooled WCL circuits — the
// repeated envelope traffic toward a stable subscriber set is exactly
// the workload circuits amortize. spray > 0 additionally seeds random
// view peers over one-shot routes (publisher only).
func (p *PubSub) forward(env Envelope, exclude identity.NodeID, spray int) {
	enc := env.Encode()
	self := p.inst.SelfEntry().ID
	sent := map[identity.NodeID]bool{self: true, exclude: true}
	matched := 0
	for _, d := range p.inst.Digests() {
		if matched >= p.cfg.MatchFanout {
			break
		}
		if sent[d.Owner] {
			continue
		}
		f := p.peerFilter(d)
		if f == nil || !f.Test(env.Topic) {
			continue
		}
		obs.Inc(&p.st.Matched)
		e, ok := p.inst.Lookup(d.Owner)
		if !ok {
			e = d.Entry
		}
		sent[d.Owner] = true
		matched++
		obs.Inc(&p.st.Forwards)
		obs.Add(&p.st.BytesForwarded, uint64(len(enc)))
		p.inst.SendCircuit(e, enc, nil)
	}
	sprayed := 0
	for tries := 0; tries < spray*4 && sprayed < spray; tries++ {
		e, ok := p.inst.GetPeer()
		if !ok {
			break
		}
		if sent[e.ID] {
			continue
		}
		sent[e.ID] = true
		sprayed++
		obs.Inc(&p.st.Forwards)
		obs.Add(&p.st.BytesForwarded, uint64(len(enc)))
		p.inst.Send(e, enc, nil)
	}
}
