package exp

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"time"

	"whisper/internal/broadcast"
	"whisper/internal/identity"
	"whisper/internal/ppss"
	"whisper/internal/pubsub"
	"whisper/internal/sim"
	"whisper/internal/stats"
	"whisper/internal/wcl"
)

// PubSubConfig parameterizes the topic pub/sub experiment: one private
// group whose members subscribe to overlapping topic sets, a fixed
// publication schedule driven through the bloom-filter-routed pub/sub
// layer, and the identical schedule replayed over the naive full-group
// broadcast — comparing delivery ratio and relay bandwidth. A final
// offline sweep measures the filter false-positive rate across filter
// sizes, the plausible-deniability dial.
type PubSubConfig struct {
	Seed int64
	N    int // overlay size (default 160)
}

// The pub/sub experiment's schedule. The live filters are
// pubsub.DefaultFilterBits wide.
const (
	pubsubMembers         = 24 // group size
	pubsubTopics          = 8  // distinct topics
	pubsubTopicsPerMember = 2  // subscriptions per member
	pubsubRounds          = 6  // publish rounds; each round publishes once per topic
	pubsubPayloadBytes    = 64 // plaintext bytes per publication
)

func (c PubSubConfig) withDefaults() PubSubConfig {
	if c.N == 0 {
		c.N = 160
	}
	return c
}

// PubSubLeg is the measured outcome of one dissemination strategy over
// the same publication schedule.
type PubSubLeg struct {
	Label      string
	Delivered  uint64 // subscriber deliveries (deduplicated)
	Expected   uint64 // publications x subscribers of that topic
	Ratio      float64
	RelayBytes uint64 // encoded bytes relays put on the wire
	Forwards   uint64
}

// FPPoint is one measured false-positive rate of the offline filter
// sweep.
type FPPoint struct {
	Bits int
	Rate float64
}

// PubSubResult is the full comparison plus a determinism fingerprint
// (TestExperimentTable runs the experiment twice with one seed and
// compares them).
type PubSubResult struct {
	Members int // members that actually joined
	Topics  int
	Rounds  int

	PubSub PubSubLeg
	Naive  PubSubLeg

	BytesRatio float64 // pub/sub relay bytes over naive relay bytes

	Duplicates     uint64 // duplicate envelope receptions suppressed
	FalsePositives uint64 // own-filter matches on unsubscribed topics (live traffic)
	Undecryptable  uint64 // must stay 0: every subscriber holds the topic key

	FPSweep []FPPoint

	Fingerprint uint64
}

// PubSub runs the experiment: converge an overlay, form one private
// group, subscribe members to overlapping topics, let subscription
// digests gossip, then publish the schedule twice — once through the
// filter-routed pub/sub, once through the full-group broadcast — and
// compare what the relays paid.
func PubSub(cfg PubSubConfig) (PubSubResult, error) {
	cfg = cfg.withDefaults()
	w, err := sim.NewWorld(sim.Options{
		Seed:     cfg.Seed,
		N:        cfg.N,
		NATRatio: 0.7,
		KeyPool:  keyPool,
		WCL:      &wcl.Config{MinPublic: 3},
		PPSS:     &ppss.Config{Cycle: 20 * time.Second, KeyBlobSize: 256, MinHelpers: 3},
		Obs:      worldObs("pubsub"),
	})
	if err != nil {
		return PubSubResult{}, err
	}
	w.StartAll()
	w.Sim.RunUntil(5 * time.Minute)

	live := w.Live()
	publics := w.LivePublics()
	if len(publics) == 0 || len(live) < 4 {
		return PubSubResult{}, fmt.Errorf("world did not converge: %d live, %d public", len(live), len(publics))
	}
	members := min(pubsubMembers, len(live))

	// One private group, onboarded the way the paper's PPSS does:
	// a public leader creates it and invites the members, joins
	// retried as a user re-requesting an invitation would.
	leader, err := publics[0].PPSS.CreateGroup("pubsub")
	if err != nil {
		return PubSubResult{}, fmt.Errorf("create group: %w", err)
	}
	candidates := make([]*sim.Node, 0, members-1)
	for _, n := range live {
		if n != publics[0] && len(candidates) < members-1 {
			candidates = append(candidates, n)
		}
	}
	var tryJoin func(n *sim.Node, attempt int)
	tryJoin = func(n *sim.Node, attempt int) {
		accr, entry, err := leader.Invite(n.ID())
		if err != nil {
			return
		}
		n.PPSS.Join("pubsub", accr, entry, func(_ *ppss.Instance, err error) {
			if err != nil && attempt < 3 && !n.Nylon.Stopped() {
				tryJoin(n, attempt+1)
			}
		})
	}
	for i, n := range candidates {
		tryJoin(n, 1)
		if i%4 == 3 {
			w.RunFor(5 * time.Second)
		}
	}
	w.RunFor(3 * time.Minute)

	g := leader.Group()
	nodes := append([]*sim.Node{publics[0]}, candidates...)
	var insts []*ppss.Instance
	for _, n := range nodes {
		if inst := n.PPSS.Instance(g); inst != nil {
			insts = append(insts, inst)
		}
	}
	res := PubSubResult{Members: len(insts), Topics: pubsubTopics, Rounds: pubsubRounds}
	if len(insts) < 4 {
		return res, fmt.Errorf("only %d/%d members joined the group", len(insts), members)
	}

	topics := make([]string, pubsubTopics)
	for t := range topics {
		topics[t] = fmt.Sprintf("topic-%d", t)
	}

	// Overlapping subscriptions: member i takes TopicsPerMember
	// consecutive topics starting at i*TopicsPerMember (mod Topics), so
	// every topic ends up with Members*TopicsPerMember/Topics
	// subscribers.
	endpoints := make([]*pubsub.PubSub, len(insts))
	subs := make([]map[string]bool, len(insts))
	subscribers := make(map[string]uint64, pubsubTopics)
	for i, inst := range insts {
		endpoints[i] = pubsub.New(inst, pubsub.Config{FilterBits: pubsub.DefaultFilterBits})
		subs[i] = make(map[string]bool, pubsubTopicsPerMember)
		for j := 0; j < pubsubTopicsPerMember; j++ {
			topic := topics[(i*pubsubTopicsPerMember+j)%pubsubTopics]
			if subs[i][topic] {
				continue
			}
			subs[i][topic] = true
			if err := endpoints[i].Subscribe(topic); err != nil {
				return res, err
			}
			subscribers[topic]++
		}
	}

	// Let the subscription digests piggyback through the group shuffles
	// until every member holds (close to) the full digest table.
	w.RunFor(6 * time.Minute)

	// Deterministic payloads from the experiment seed, independent of
	// the world's rng so protocol scheduling is untouched.
	prng := rand.New(rand.NewSource(cfg.Seed ^ 0x707562737562)) // "pubsub"
	payload := func() []byte {
		b := make([]byte, pubsubPayloadBytes)
		prng.Read(b)
		return b
	}

	// Leg 1: the filter-routed pub/sub.
	for round := 0; round < pubsubRounds; round++ {
		for t, topic := range topics {
			pub := endpoints[(round+t)%len(endpoints)]
			if err := pub.Publish(topic, payload()); err != nil {
				return res, err
			}
			res.PubSub.Expected += subscribers[topic]
		}
		w.RunFor(20 * time.Second)
	}
	w.RunFor(2 * time.Minute)

	res.PubSub.Label = "pubsub"
	for _, ep := range endpoints {
		s := ep.Stats()
		res.PubSub.Delivered += s.Delivered
		res.PubSub.RelayBytes += s.BytesForwarded
		res.PubSub.Forwards += s.Forwards
		res.Duplicates += s.Duplicates
		res.FalsePositives += s.FalsePositives
		res.Undecryptable += s.Undecryptable
	}
	if res.PubSub.Expected > 0 {
		res.PubSub.Ratio = float64(res.PubSub.Delivered) / float64(res.PubSub.Expected)
	}

	// Leg 2: the same schedule over the naive full-group broadcast —
	// every member receives every message and discards the ones it has
	// no interest in. The payload carries the topic tag in clear within
	// the group (the broadcast layer encrypts hop-by-hop), so receivers
	// can count subscriber-relevant deliveries.
	bcs := make([]*broadcast.Broadcaster, len(insts))
	naiveDelivered := uint64(0)
	for i, inst := range insts {
		i := i
		bcs[i] = broadcast.New(inst, broadcast.Config{})
		bcs[i].OnDeliver = func(_ identity.NodeID, p []byte) {
			if len(p) < 4 {
				return
			}
			var tag pubsub.TopicTag
			copy(tag[:], p[:4])
			for topic := range subs[i] {
				if pubsub.HashTopic(topic) == tag {
					naiveDelivered++
					return
				}
			}
		}
	}
	for round := 0; round < pubsubRounds; round++ {
		for t, topic := range topics {
			tag := pubsub.HashTopic(topic)
			bcs[(round+t)%len(bcs)].Publish(append(tag[:], payload()...))
			res.Naive.Expected += subscribers[topic]
		}
		w.RunFor(20 * time.Second)
	}
	w.RunFor(2 * time.Minute)

	res.Naive.Label = "naive-broadcast"
	res.Naive.Delivered = naiveDelivered
	for _, bc := range bcs {
		s := bc.Stats()
		res.Naive.RelayBytes += s.ForwardBytes
		res.Naive.Forwards += s.Forwards
	}
	if res.Naive.Expected > 0 {
		res.Naive.Ratio = float64(res.Naive.Delivered) / float64(res.Naive.Expected)
	}
	if res.Naive.RelayBytes > 0 {
		res.BytesRatio = float64(res.PubSub.RelayBytes) / float64(res.Naive.RelayBytes)
	}

	// Offline false-positive sweep: rebuild each member's filter at
	// several sizes and probe with topics nobody publishes. The rates
	// are the plausible-deniability dial of §IV: smaller filters hide
	// interests better at the cost of wasted forwards.
	res.FPSweep = fpSweep(subs, topics, []int{16, 32, 64, 256})

	h := fnv.New64a()
	for _, leg := range []PubSubLeg{res.PubSub, res.Naive} {
		fmt.Fprintf(h, "%s|%d|%d|%d|%d;", leg.Label, leg.Delivered, leg.Expected, leg.RelayBytes, leg.Forwards)
	}
	fmt.Fprintf(h, "dup=%d;fp=%d;undec=%d;members=%d", res.Duplicates, res.FalsePositives, res.Undecryptable, res.Members)
	for _, p := range res.FPSweep {
		fmt.Fprintf(h, ";m%d=%.6f", p.Bits, p.Rate)
	}
	res.Fingerprint = h.Sum64()

	return res, nil
}

// fpSweep measures, for each filter size m, the fraction of probes for
// unsubscribed topics that a member's filter (k = default hashes)
// wrongly matches. Probes are the real topics the member skipped plus
// 56 topics nobody subscribes to.
func fpSweep(subs []map[string]bool, topics []string, sizes []int) []FPPoint {
	probes := make([]pubsub.TopicTag, 0, len(topics)+56)
	probeSub := make([]string, 0, len(topics)+56)
	for _, t := range topics {
		probes = append(probes, pubsub.HashTopic(t))
		probeSub = append(probeSub, t)
	}
	for i := 0; i < 56; i++ {
		probes = append(probes, pubsub.HashTopic(fmt.Sprintf("probe-%d", i)))
		probeSub = append(probeSub, "")
	}
	out := make([]FPPoint, 0, len(sizes))
	for _, m := range sizes {
		hits, trials := 0, 0
		for _, sub := range subs {
			f := pubsub.NewFilter(m, pubsub.DefaultFilterHashes)
			for t := range sub {
				f.Add(pubsub.HashTopic(t))
			}
			for i, tag := range probes {
				if probeSub[i] != "" && sub[probeSub[i]] {
					continue // true positive, not a trial
				}
				trials++
				if f.Test(tag) {
					hits++
				}
			}
		}
		rate := 0.0
		if trials > 0 {
			rate = float64(hits) / float64(trials)
		}
		out = append(out, FPPoint{Bits: m, Rate: rate})
	}
	return out
}

// PrintPubSub renders the comparison.
func PrintPubSub(out io.Writer, res PubSubResult) {
	fmt.Fprintf(out, "== Topic pub/sub over a private group: %d members, %d topics, %d rounds ==\n",
		res.Members, res.Topics, res.Rounds)
	tb := stats.NewTable("leg", "delivered", "ratio", "relay bytes", "forwards")
	for _, l := range []PubSubLeg{res.PubSub, res.Naive} {
		tb.Row(l.Label,
			fmt.Sprintf("%d/%d", l.Delivered, l.Expected),
			fmt.Sprintf("%.3f", l.Ratio),
			fmt.Sprint(l.RelayBytes),
			fmt.Sprint(l.Forwards))
	}
	fmt.Fprint(out, tb.String())
	fmt.Fprintf(out, "relay bandwidth vs naive broadcast: %.2fx\n", res.BytesRatio)
	fmt.Fprintf(out, "duplicates suppressed: %d   live false positives: %d   undecryptable: %d\n",
		res.Duplicates, res.FalsePositives, res.Undecryptable)
	fmt.Fprintln(out, "# measured filter false-positive rate (k=4, probes on unsubscribed topics)")
	for _, p := range res.FPSweep {
		fmt.Fprintf(out, "m=%-4d %.4f\n", p.Bits, p.Rate)
	}
	fmt.Fprintf(out, "fingerprint: %s\n", res.fingerprint())
}

func (res PubSubResult) fingerprint() string { return fmt.Sprintf("%016x", res.Fingerprint) }

// PubSubShapeCheck verifies the tentpole claims: near-total delivery
// through the filters, relay bandwidth strictly below the naive flood,
// no undecryptable envelopes, and a false-positive rate that falls as
// the filter grows.
func PubSubShapeCheck(res PubSubResult) []string {
	var bad []string
	if res.PubSub.Ratio < 0.99 {
		bad = append(bad, fmt.Sprintf("pub/sub delivery ratio %.3f, want >= 0.99", res.PubSub.Ratio))
	}
	if res.Topics >= 4 && res.Naive.RelayBytes > 0 && res.PubSub.RelayBytes >= res.Naive.RelayBytes {
		bad = append(bad, fmt.Sprintf("pub/sub relay bytes %d not below naive broadcast %d", res.PubSub.RelayBytes, res.Naive.RelayBytes))
	}
	if res.Undecryptable != 0 {
		bad = append(bad, fmt.Sprintf("%d undecryptable envelopes at subscribers, want 0", res.Undecryptable))
	}
	if n := len(res.FPSweep); n >= 2 {
		first, last := res.FPSweep[0], res.FPSweep[n-1]
		if first.Rate <= 0 {
			bad = append(bad, fmt.Sprintf("m=%d false-positive rate is 0, expected measurable", first.Bits))
		}
		if last.Rate >= first.Rate && first.Rate > 0 {
			bad = append(bad, fmt.Sprintf("false-positive rate did not fall from m=%d (%.4f) to m=%d (%.4f)",
				first.Bits, first.Rate, last.Bits, last.Rate))
		}
		for i := 1; i < n; i++ {
			if res.FPSweep[i].Rate > res.FPSweep[i-1].Rate+0.01 {
				bad = append(bad, fmt.Sprintf("false-positive rate rose from m=%d to m=%d", res.FPSweep[i-1].Bits, res.FPSweep[i].Bits))
			}
		}
	}
	return bad
}
