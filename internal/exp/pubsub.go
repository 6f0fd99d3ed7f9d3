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
)

// pubsubConfig is the topic pub/sub experiment: one private group
// whose members subscribe to overlapping topic sets, a fixed
// publication schedule driven through the bloom-filter-routed pub/sub
// layer, and the identical schedule replayed over the naive full-group
// broadcast — comparing delivery ratio and relay bandwidth. A final
// offline sweep measures the filter false-positive rate across filter
// sizes, the plausible-deniability dial.
type pubsubConfig struct {
	Seed int64
	N    int // overlay size
}

// newPubSub runs a 160-node overlay.
func newPubSub(p Params) pubsubConfig { return pubsubConfig{Seed: p.Seed, N: p.n(160)} }

// The pub/sub experiment's schedule. The live filters are
// pubsub.DefaultFilterBits wide.
const (
	pubsubMembers         = 24 // group size
	pubsubTopics          = 8  // distinct topics
	pubsubTopicsPerMember = 2  // subscriptions per member
	pubsubRounds          = 6  // publish rounds; each round publishes once per topic
	pubsubPayloadBytes    = 64 // plaintext bytes per publication
)

// pubsubLeg is the measured outcome of one dissemination strategy over
// the same publication schedule.
type pubsubLeg struct {
	Label      string
	Delivered  uint64 // subscriber deliveries (deduplicated)
	Expected   uint64 // publications x subscribers of that topic
	Ratio      float64
	RelayBytes uint64 // encoded bytes relays put on the wire
	Forwards   uint64
}

// fpPoint is one measured false-positive rate of the offline filter
// sweep.
type fpPoint struct {
	Bits int
	Rate float64
}

// pubsubResult is the full comparison plus a determinism fingerprint.
type pubsubResult struct {
	Members int // members that actually joined
	Topics  int
	Rounds  int

	PubSub pubsubLeg
	Naive  pubsubLeg

	BytesRatio float64 // pub/sub relay bytes over naive relay bytes

	Duplicates     uint64 // duplicate envelope receptions suppressed
	FalsePositives uint64 // own-filter matches on unsubscribed topics (live traffic)
	Undecryptable  uint64 // must stay 0: every subscriber holds the topic key

	FPSweep []fpPoint

	Fingerprint uint64
}

// run runs the experiment: converge an overlay, form one private
// group, subscribe members to overlapping topics, let subscription
// digests gossip, then publish the schedule twice — once through the
// filter-routed pub/sub, once through the full-group broadcast — and
// compare what the relays paid.
func (cfg pubsubConfig) run() (pubsubResult, error) {
	w, err := newWorld("pubsub", sim.Options{
		Seed: cfg.Seed,
		N:    cfg.N,
		PPSS: &ppss.Config{Cycle: 20 * time.Second, KeyBlobSize: 256, MinHelpers: 3},
	})
	if err != nil {
		return pubsubResult{}, err
	}
	w.StartAll()
	w.Sim.RunUntil(5 * time.Minute)

	live := w.Live()
	publics := w.LivePublics()
	if len(publics) == 0 || len(live) < 4 {
		return pubsubResult{}, fmt.Errorf("world did not converge: %d live, %d public", len(live), len(publics))
	}
	members := min(pubsubMembers, len(live))

	// One private group, onboarded the way the paper's PPSS does:
	// a public leader creates it and invites the members, joins
	// retried as a user re-requesting an invitation would.
	leader, err := publics[0].PPSS.CreateGroup("pubsub")
	if err != nil {
		return pubsubResult{}, fmt.Errorf("create group: %w", err)
	}
	candidates := make([]*sim.Node, 0, members-1)
	for _, n := range live {
		if n != publics[0] && len(candidates) < members-1 {
			candidates = append(candidates, n)
		}
	}
	for i, n := range candidates {
		join(leader, "pubsub", n, 3)
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
	res := pubsubResult{Members: len(insts), Topics: pubsubTopics, Rounds: pubsubRounds}
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
			//whisper:unordered counts one delivery if any subscribed topic matches; which one is irrelevant
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
	for _, leg := range []pubsubLeg{res.PubSub, res.Naive} {
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
func fpSweep(subs []map[string]bool, topics []string, sizes []int) []fpPoint {
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
	out := make([]fpPoint, 0, len(sizes))
	for _, m := range sizes {
		hits, trials := 0, 0
		for _, sub := range subs {
			f := pubsub.NewFilter(m, pubsub.DefaultFilterHashes)
			//whisper:unordered adding to a bloom filter commutes
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
		out = append(out, fpPoint{Bits: m, Rate: rate})
	}
	return out
}

// print renders the comparison.
func (res pubsubResult) print(out io.Writer) {
	fmt.Fprintf(out, "== Topic pub/sub over a private group: %d members, %d topics, %d rounds ==\n",
		res.Members, res.Topics, res.Rounds)
	tb := stats.NewTable("leg", "delivered", "ratio", "relay bytes", "forwards")
	for _, l := range []pubsubLeg{res.PubSub, res.Naive} {
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

func (res pubsubResult) fingerprint() string { return fmt.Sprintf("%016x", res.Fingerprint) }

// check verifies the claims: near-total delivery through the filters,
// relay bandwidth strictly below the naive flood, no undecryptable
// envelopes, and a false-positive rate that falls as the filter grows.
func (res pubsubResult) check() []string {
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
