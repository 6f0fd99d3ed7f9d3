package ppss

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"time"

	"whisper/internal/crypt"
	"whisper/internal/dedup"
	"whisper/internal/identity"
	"whisper/internal/keyss"
	"whisper/internal/obs"
	"whisper/internal/pss"
	"whisper/internal/transport"
	"whisper/internal/wcl"
)

// Config parameterizes PPSS instances (shared by all groups of a node).
type Config struct {
	// ViewSize bounds the private view (default 10).
	ViewSize int
	// ExchangeSize is the number of entries per shuffle (paper: 5).
	ExchangeSize int
	// Cycle is the PPSS gossip period (paper: 1 minute).
	Cycle time.Duration
	// Jitter desynchronizes cycles (default Cycle/2).
	Jitter time.Duration
	// MinHelpers is Π, the helper P-nodes shipped per N-node entry.
	MinHelpers int
	// KeyBlobSize is the on-wire size of one public key (default 1 KB).
	KeyBlobSize int
	// RespTimeout bounds the wait for a shuffle response.
	RespTimeout time.Duration
	// JoinTimeout bounds the whole join handshake.
	JoinTimeout time.Duration
	// PCPRefresh is the persistent-path refresh period (§IV-C; lower
	// frequency than gossip, bounded by the NAT lease).
	PCPRefresh time.Duration
	// HeartbeatTimeout is how stale the leader heartbeat may grow
	// before an election starts (§IV-A).
	HeartbeatTimeout time.Duration
	// ElectionDuration is the aggregation convergence window.
	ElectionDuration time.Duration
	// Suite selects the crypto suite for group key pairs (default
	// rsa2048, matching the node identity default).
	Suite crypt.SuiteID
	// GroupKeyBits sizes RSA group key pairs (default
	// identity.DefaultKeyBits); ignored by fixed-size suites.
	GroupKeyBits int
	// AnnounceFor is how long a new leader keeps piggybacking its key
	// announcement on shuffles.
	AnnounceFor time.Duration
	// Obs is the observability scope the router and its group instances
	// register instruments under. Nil runs unobserved (counters still
	// count).
	Obs *obs.Scope
}

func (c Config) withDefaults() Config {
	if c.ViewSize == 0 {
		c.ViewSize = 10
	}
	if c.ExchangeSize == 0 {
		c.ExchangeSize = 5
	}
	if c.Cycle == 0 {
		c.Cycle = time.Minute
	}
	if c.Jitter == 0 {
		c.Jitter = c.Cycle / 2
	}
	if c.MinHelpers == 0 {
		c.MinHelpers = 3
	}
	if c.KeyBlobSize == 0 {
		c.KeyBlobSize = keyss.DefaultKeyBlobSize
	}
	if c.RespTimeout == 0 {
		c.RespTimeout = 20 * time.Second
	}
	if c.JoinTimeout == 0 {
		c.JoinTimeout = 30 * time.Second
	}
	if c.PCPRefresh == 0 {
		c.PCPRefresh = 2 * time.Minute
	}
	if c.HeartbeatTimeout == 0 {
		c.HeartbeatTimeout = 8 * c.Cycle
	}
	if c.ElectionDuration == 0 {
		c.ElectionDuration = 4 * c.Cycle
	}
	if c.AnnounceFor == 0 {
		c.AnnounceFor = 10 * c.Cycle
	}
	return c
}

// InstanceStats holds per-group protocol events: the instance bumps
// them in place and Instance.Stats returns a copy. The tags name the
// exported metrics (see obs.Register).
type InstanceStats struct {
	ExchangesInitiated uint64 `obs:"ppss_exchanges_initiated_total"`
	ExchangesCompleted uint64 `obs:"ppss_exchanges_completed_total"`
	ExchangesTimedOut  uint64 `obs:"ppss_exchanges_timed_out_total"`
	ExchangesServed    uint64 `obs:"ppss_exchanges_served_total"`
	BadPassports       uint64 `obs:"ppss_bad_passports_total"`
	SendFailures       uint64 `obs:"ppss_send_failures_total"`
	JoinsServed        uint64 `obs:"ppss_joins_served_total"`
	ElectionsStarted   uint64 `obs:"ppss_elections_started_total"`
	BecameLeader       uint64 `obs:"ppss_became_leader_total"`
	AnnouncesAccepted  uint64 `obs:"ppss_announces_accepted_total"`
	AppDelivered       uint64 `obs:"ppss_app_delivered_total"`
	PCPRefreshes       uint64 `obs:"ppss_pcp_refreshes_total"`
	PCPDropped         uint64 `obs:"ppss_pcp_dropped_total"`
	// DupExchangesDropped counts shuffle requests whose (sender, seq)
	// was already served — a duplicated or replayed exchange that, if
	// processed again, would double-apply its view entries.
	DupExchangesDropped uint64 `obs:"ppss_dup_exchanges_dropped_total"`
}

// exchangeKey identifies one shuffle request for replay suppression.
type exchangeKey struct {
	from identity.NodeID
	seq  uint32
}

type pendingExchange struct {
	partner Entry
	sent    []pss.Entry[Entry]
	started time.Duration
	timer   transport.Timer
}

type electionState struct {
	started time.Duration
	// lastChange is when the max proposal last changed; resolution
	// requires the maximum to have been stable for a while, so the
	// aggregation has actually converged before anyone self-elects.
	lastChange time.Duration
	proposal   uint64
	proposer   Entry
}

type pcpState struct {
	entry  Entry
	since  time.Duration
	lastOK time.Duration
}

// Instance is one node's membership in one private group.
type Instance struct {
	r    *Router
	cfg  Config
	rt   transport.Transport
	grp  GroupID
	name string

	passport Passport
	history  *KeyHistory
	// verified remembers passports whose signature already checked out,
	// so a member's stream of messages costs one signature verification
	// and not one per message (see passportVerified).
	verified [verifiedPassports]verifiedPassport

	groupPriv crypt.PrivateKey // non-nil iff this node is a leader
	leaderID  identity.NodeID
	lastHB    time.Duration
	election  *electionState
	announce  *keyAnnounce
	announced time.Duration

	view    *pss.View[Entry]
	pending map[uint32]*pendingExchange
	seq     uint32
	pcp     map[identity.NodeID]*pcpState
	// scratch is the reusable sample buffer for gossip hot paths:
	// shuffle-serving samples are consumed synchronously (encoded and
	// merged before the handler returns), so one per-instance slice
	// replaces a per-shuffle allocation.
	scratch []pss.Entry[Entry]
	// selfDigest and digests implement the application digest
	// piggyback (pub/sub subscription filters): own digest to ship,
	// and the bounded table of digests learned from shuffles.
	selfDigest *SubDigest
	digests    map[identity.NodeID]SubDigest
	// served remembers recently answered shuffle requests by (sender,
	// seq), making the serving side idempotent: a duplicated request is
	// not merged into the view a second time. The response side is
	// already idempotent through the pending map.
	served *dedup.Seen[exchangeKey]

	ticker    transport.Ticker
	pcpTicker transport.Ticker
	stopped   bool

	// OnMessage delivers application payloads with the sender's entry,
	// so the application can answer through a single WCL path (§V-G).
	// Payloads whose first byte matches a Subscribe tag are routed to
	// that subscriber instead.
	OnMessage func(from Entry, payload []byte)
	handlers  map[uint8]func(from Entry, payload []byte)
	// AuthorizeJoin, if set on a leader, vetoes admissions (the
	// authorizeJoin(id, public key) hook of Fig 1).
	AuthorizeJoin func(id identity.NodeID, key crypt.PublicKey) bool
	// OnExchangeRTT, if set, observes the round-trip time of each
	// completed view exchange (the quantity Fig 7 plots).
	OnExchangeRTT func(rtt time.Duration)

	st          InstanceStats
	exchangeRTT *obs.Histogram
	obs         *obs.Scope
}

func newInstance(r *Router, g GroupID, name string, history *KeyHistory, passport Passport) *Instance {
	// The instruments are scoped by the node-local join ordinal, never
	// by the group ID: a node's metrics may be scraped (whisper-node's
	// /metrics), and its group memberships are private.
	sc := r.cfg.Obs.With("group", strconv.Itoa(r.joined))
	r.joined++
	in := &Instance{
		r:        r,
		cfg:      r.cfg,
		rt:       r.rt,
		grp:      g,
		name:     name,
		history:  history,
		passport: passport,
		view:     pss.NewView[Entry](r.cfg.ViewSize),
		pending:  make(map[uint32]*pendingExchange),
		pcp:      make(map[identity.NodeID]*pcpState),
		served:   dedup.New[exchangeKey](512),
		obs:      sc,

		exchangeRTT: sc.Histogram("ppss_exchange_rtt_ms"),
	}
	obs.Register(sc, &in.st)
	return in
}

// Obs returns the instance's observability scope (node + group labels);
// group applications (T-Chord, broadcast) hang their instruments off
// it. Nil when the stack runs unobserved.
func (in *Instance) Obs() *obs.Scope { return in.obs }

// Stats returns a snapshot of the instance's counters.
func (in *Instance) Stats() InstanceStats { return in.st }

// Group returns the group identifier.
func (in *Instance) Group() GroupID { return in.grp }

// IsLeader reports whether this node holds the group private key.
func (in *Instance) IsLeader() bool { return in.groupPriv != nil }

// LeaderID returns the best-known leader.
func (in *Instance) LeaderID() identity.NodeID { return in.leaderID }

// Epoch returns the current group key epoch.
func (in *Instance) Epoch() uint32 { return in.history.Epoch() }

// Passport returns this member's passport.
func (in *Instance) Passport() Passport { return in.passport }

// View returns the private view entries.
func (in *Instance) View() []pss.Entry[Entry] { return in.view.Entries() }

// ViewIDs returns the member IDs currently in the private view.
func (in *Instance) ViewIDs() []identity.NodeID { return in.view.IDs() }

// GetPeer returns a uniformly random private-view entry — the getPeer()
// of the PPSS API (Fig 1).
func (in *Instance) GetPeer() (Entry, bool) {
	e, ok := in.view.Random(in.rt.Rand())
	return e.Val, ok
}

// Lookup returns the freshest coordinates known for a member: the
// persistent pool first, then the private view.
func (in *Instance) Lookup(id identity.NodeID) (Entry, bool) {
	if st, ok := in.pcp[id]; ok {
		return st.entry, true
	}
	if e, ok := in.view.Get(id); ok {
		return e.Val, true
	}
	return Entry{}, false
}

func (in *Instance) start() {
	in.ticker = in.rt.EveryJitter(in.cfg.Cycle, in.cfg.Jitter, in.cycle)
	in.pcpTicker = in.rt.EveryJitter(in.cfg.PCPRefresh, in.cfg.PCPRefresh/4, in.refreshPCP)
}

func (in *Instance) stop() {
	if in.stopped {
		return
	}
	in.stopped = true
	in.ticker.Stop()
	in.pcpTicker.Stop()
	for _, p := range in.pending {
		p.timer.Cancel()
	}
}

func (in *Instance) selectOpts() pss.SelectOpts {
	return pss.SelectOpts{Capacity: in.cfg.ViewSize, Self: in.r.id()}
}

// cycle runs one private gossip round over a WCL route (§IV-B, Fig 4).
func (in *Instance) cycle() {
	if in.stopped {
		return
	}
	in.tickElection()
	in.view.AgeAll()
	partner, ok := in.view.Oldest()
	if !ok {
		return
	}
	in.view.Remove(partner.Val.ID)
	sent := in.buffer(partner.Val.ID)
	in.seq++
	seq := in.seq
	m := shuffleMsg{
		Group:    in.grp,
		Passport: in.passport,
		Seq:      seq,
		From:     in.r.SelfEntry(),
		Entries:  sent,
		Extras:   in.extras(sent),
	}
	obs.Inc(&in.st.ExchangesInitiated)
	p := &pendingExchange{partner: partner.Val, sent: sent, started: in.rt.Now()}
	p.timer = in.rt.After(in.cfg.RespTimeout, func() {
		if in.pending[seq] == p {
			delete(in.pending, seq)
			obs.Inc(&in.st.ExchangesTimedOut)
		}
	})
	in.pending[seq] = p
	in.wclSend(partner.Val, m.encode(msgShuffleReq, in.cfg.KeyBlobSize), func(res wcl.Result) {
		if res.Outcome == wcl.Failed {
			// The WCL exhausted its alternatives: the partner is
			// considered failed and stays out of the private view
			// (footnote 3 of the paper).
			obs.Inc(&in.st.SendFailures)
		}
	})
}

// buffer assembles the shuffle buffer: self (age 0) plus a sample. The
// sample lands in the instance scratch slice; the returned buffer is a
// fresh copy because the initiator retains it until the response.
func (in *Instance) buffer(exclude identity.NodeID) []pss.Entry[Entry] {
	in.scratch = in.view.SampleInto(in.scratch, in.rt.Rand(), in.cfg.ExchangeSize-1, exclude)
	buf := make([]pss.Entry[Entry], 0, len(in.scratch)+1)
	buf = append(buf, pss.Entry[Entry]{Val: in.r.SelfEntry()})
	buf = append(buf, in.scratch...)
	return buf
}

// checkPassport validates a message's passport and its binding to the
// claimed sender.
func (in *Instance) checkPassport(p Passport, from identity.NodeID) bool {
	if p.Member != from || !in.passportVerified(p) {
		obs.Inc(&in.st.BadPassports)
		return false
	}
	return true
}

// verifiedPassports is the size of an instance's verified-passport
// table: direct-mapped by member, so a group larger than the table only
// re-verifies more often.
const verifiedPassports = 64

// verifiedPassport is one remembered verification: the exact signature
// bytes that verified for (member, epoch), and the group key they
// verified under.
type verifiedPassport struct {
	member identity.NodeID
	epoch  uint32
	key    crypt.PublicKey
	sig    []byte // the table's own copy
}

// passportVerified reports whether p carries a valid group signature.
// A member ships the same passport with every message, so the signature
// is verified once and then recognized: a hit needs the same member and
// epoch, the same epoch key (KeyHistory is append-only, so an epoch's
// key never changes — the comparison is belt and braces), and the full
// signature byte for byte. Anything else — a forged or different
// signature, a new epoch, a member the table evicted — takes the full
// verification, and only successes are remembered.
func (in *Instance) passportVerified(p Passport) bool {
	pub := in.history.At(p.Epoch)
	slot := &in.verified[uint64(p.Member)*0x9E3779B97F4A7C15>>58]
	if pub != nil && slot.key == pub && slot.member == p.Member && slot.epoch == p.Epoch && bytes.Equal(slot.sig, p.Sig) {
		return true
	}
	if p.Verify(in.r.cpu(), in.grp, in.history) != nil {
		return false
	}
	*slot = verifiedPassport{member: p.Member, epoch: p.Epoch, key: pub, sig: append(slot.sig[:0], p.Sig...)}
	return true
}

func (in *Instance) handleShuffleReq(m *shuffleMsg) {
	if in.stopped {
		return
	}
	// Key announcements are authenticated on their own (old-epoch
	// passport + signature) and must be absorbed before the passport
	// check: right after an election the new leader's passport is only
	// verifiable once its announced key is installed.
	if m.Extras.Announce != nil {
		in.acceptAnnounce(m.Extras.Announce)
	}
	if !in.checkPassport(m.Passport, m.From.ID) {
		return
	}
	// A replayed or duplicated request must not be merged twice: the
	// second merge would re-insert entries the first exchange already
	// traded away, skewing the view towards the replayed sample.
	if in.served.Add(exchangeKey{from: m.From.ID, seq: m.Seq}) {
		obs.Inc(&in.st.DupExchangesDropped)
		return
	}
	in.absorbExtras(m.Extras)
	in.absorbDigests(m.Extras.Digests, m.From, m.Entries)
	// Serving-side sample: consumed synchronously (encoded below,
	// merged right after), so it reuses the instance scratch slice
	// instead of allocating per shuffle.
	in.scratch = in.view.SampleInto(in.scratch, in.rt.Rand(), in.cfg.ExchangeSize, m.From.ID)
	sent := in.scratch
	resp := shuffleMsg{
		Group:    in.grp,
		Passport: in.passport,
		Seq:      m.Seq,
		From:     in.r.SelfEntry(),
		Entries:  sent,
		Extras:   in.extras(sent),
	}
	in.wclSend(m.From, resp.encode(msgShuffleResp, in.cfg.KeyBlobSize), nil)
	pss.MergeCyclon(in.view, sent, m.Entries, in.selectOpts())
	obs.Inc(&in.st.ExchangesServed)
}

func (in *Instance) handleShuffleResp(m *shuffleMsg) {
	if in.stopped {
		return
	}
	if m.Extras.Announce != nil {
		in.acceptAnnounce(m.Extras.Announce)
	}
	if !in.checkPassport(m.Passport, m.From.ID) {
		return
	}
	p, ok := in.pending[m.Seq]
	if !ok || p.partner.ID != m.From.ID {
		return
	}
	delete(in.pending, m.Seq)
	p.timer.Cancel()
	in.absorbExtras(m.Extras)
	in.absorbDigests(m.Extras.Digests, m.From, m.Entries)
	pss.MergeCyclon(in.view, p.sent, m.Entries, in.selectOpts())
	obs.Inc(&in.st.ExchangesCompleted)
	in.exchangeRTT.ObserveDuration(in.rt.Now() - p.started)
	if in.OnExchangeRTT != nil {
		in.OnExchangeRTT(in.rt.Now() - p.started)
	}
}

// handleJoinReq admits a new member (leaders only).
func (in *Instance) handleJoinReq(m *joinReq) {
	if in.stopped || !in.IsLeader() {
		return
	}
	if m.Accr.Invitee != m.From.ID || m.Accr.Verify(in.r.cpu(), in.history) != nil {
		obs.Inc(&in.st.BadPassports)
		return
	}
	if in.AuthorizeJoin != nil && !in.AuthorizeJoin(m.From.ID, m.From.PubKey) {
		return
	}
	passport, err := IssuePassport(in.r.cpu(), in.groupPriv, in.grp, m.From.ID, in.history.Epoch())
	if err != nil {
		return
	}
	resp := joinResp{
		Group:    in.grp,
		Passport: passport,
		History:  in.historyKeys(),
		Leader:   in.r.SelfEntry(),
		Entries:  in.view.Sample(in.rt.Rand(), in.cfg.ExchangeSize, m.From.ID),
	}
	in.r.w.Send(m.From.Dest(), resp.encode(in.cfg.KeyBlobSize), nil)
	in.view.Insert(m.From, 0)
	obs.Inc(&in.st.JoinsServed)
}

func (in *Instance) historyKeys() []crypt.PublicKey {
	out := make([]crypt.PublicKey, in.history.Len())
	for i := range out {
		out[i] = in.history.At(uint32(i))
	}
	return out
}

// Invite issues an accreditation for invitee (leaders only) and returns
// it with this leader's entry-point coordinates, to be delivered
// out-of-band (e-mail, IM, another application — §IV-A).
func (in *Instance) Invite(invitee identity.NodeID) (Accreditation, Entry, error) {
	if !in.IsLeader() {
		return Accreditation{}, Entry{}, errors.New("ppss: only leaders can invite")
	}
	accr, err := IssueAccreditation(in.r.cpu(), in.groupPriv, in.grp, invitee, in.history.Epoch())
	if err != nil {
		return Accreditation{}, Entry{}, err
	}
	return accr, in.r.SelfEntry(), nil
}

// wclSend routes one encoded message to a member. Persistent-pool
// members — and any destination that already has an established
// circuit — ride the WCL circuit layer: the pool is exactly the set of
// partners a node re-contacts indefinitely, so the one-time circuit
// setup amortizes and the periodic PCP ping doubles as the circuit's
// keepalive (the circuit transparently falls back to one-shot sends
// when it breaks). Everything else pays the ordinary one-shot onion
// path.
func (in *Instance) wclSend(e Entry, encoded []byte, done func(wcl.Result)) {
	if _, pooled := in.pcp[e.ID]; pooled || in.r.w.HasCircuit(e.ID) {
		in.r.w.SendCircuit(e.Dest(), encoded, done)
		return
	}
	in.r.w.Send(e.Dest(), encoded, done)
}

// Send delivers an application payload to a group member over a WCL
// route, shipping this node's passport and entry. done is optional.
// Pooled members (MakePersistent) are reached over a circuit.
func (in *Instance) Send(to Entry, payload []byte, done func(wcl.Result)) {
	m := appMsg{Group: in.grp, Passport: in.passport, From: in.r.SelfEntry(), Payload: payload}
	in.wclSend(to, m.encode(in.cfg.KeyBlobSize), func(res wcl.Result) {
		if res.Outcome == wcl.Failed {
			obs.Inc(&in.st.SendFailures)
		}
		if done != nil {
			done(res)
		}
	})
}

// SendCircuit delivers an application payload to a group member over a
// pooled WCL circuit regardless of pool membership: the first send
// establishes the circuit, subsequent ones ride symmetric cells. This
// is the fan-out path of the pub/sub layer, whose repeated envelope
// traffic toward the same matched subscribers is exactly the workload
// circuits amortize. The circuit layer transparently falls back to a
// one-shot onion when establishment fails.
func (in *Instance) SendCircuit(to Entry, payload []byte, done func(wcl.Result)) {
	m := appMsg{Group: in.grp, Passport: in.passport, From: in.r.SelfEntry(), Payload: payload}
	in.r.w.SendCircuit(to.Dest(), m.encode(in.cfg.KeyBlobSize), func(res wcl.Result) {
		if res.Outcome == wcl.Failed {
			obs.Inc(&in.st.SendFailures)
		}
		if done != nil {
			done(res)
		}
	})
}

// SendTo is Send to a member looked up by ID (persistent pool first).
func (in *Instance) SendTo(id identity.NodeID, payload []byte, done func(wcl.Result)) error {
	e, ok := in.Lookup(id)
	if !ok {
		return fmt.Errorf("ppss: member %v not known", id)
	}
	in.Send(e, payload, done)
	return nil
}

func (in *Instance) handleApp(m *appMsg) {
	if in.stopped || !in.checkPassport(m.Passport, m.From.ID) {
		return
	}
	obs.Inc(&in.st.AppDelivered)
	if len(m.Payload) > 0 {
		if h := in.handlers[m.Payload[0]]; h != nil {
			h(m.From, m.Payload)
			return
		}
	}
	if in.OnMessage != nil {
		in.OnMessage(m.From, m.Payload)
	}
}

// Subscribe routes application payloads whose first byte equals tag to
// fn, letting several gossip protocols (a DHT, a broadcast layer, an
// aggregation service — the "Applications and Gossip-based protocols"
// box of Fig 1) share one group instance. Passing a nil fn removes the
// subscription.
func (in *Instance) Subscribe(tag uint8, fn func(from Entry, payload []byte)) {
	if in.handlers == nil {
		in.handlers = make(map[uint8]func(Entry, []byte))
	}
	if fn == nil {
		delete(in.handlers, tag)
		return
	}
	in.handlers[tag] = fn
}

// MakePersistent pins a member in the private connection pool: the
// instance refreshes its helper set periodically so the application can
// keep communicating with it even after it rotates out of the view
// (§IV-C, the makePersistent(id) of Fig 1).
func (in *Instance) MakePersistent(e Entry) {
	if e.ID == in.r.id() {
		return
	}
	if st, ok := in.pcp[e.ID]; ok {
		st.entry = e
		return
	}
	in.pcp[e.ID] = &pcpState{entry: e, since: in.rt.Now(), lastOK: in.rt.Now()}
}

// DropPersistent removes a member from the pool.
func (in *Instance) DropPersistent(id identity.NodeID) { delete(in.pcp, id) }

// PersistentIDs lists the pooled members in NodeID order.
func (in *Instance) PersistentIDs() []identity.NodeID {
	return slices.Sorted(maps.Keys(in.pcp))
}

// refreshPCP pings every pooled member so both sides refresh helper
// sets and keep NAT routes warm. A member that has not answered for
// several refresh periods is considered failed and dropped from the
// pool (the application observes it via PersistentIDs).
func (in *Instance) refreshPCP() {
	if in.stopped {
		return
	}
	now := in.rt.Now()
	// NodeID order: every send draws from the simulation's RNG.
	for _, id := range in.PersistentIDs() {
		st := in.pcp[id]
		if now-st.lastOK > 4*in.cfg.PCPRefresh {
			delete(in.pcp, id)
			obs.Inc(&in.st.PCPDropped)
			continue
		}
		in.seq++
		m := pcpMsg{Group: in.grp, Passport: in.passport, Seq: in.seq, From: in.r.SelfEntry()}
		in.wclSend(st.entry, m.encode(msgPCPPing, in.cfg.KeyBlobSize), nil)
		obs.Inc(&in.st.PCPRefreshes)
	}
}

func (in *Instance) handlePCP(kind uint8, m *pcpMsg) {
	if in.stopped || !in.checkPassport(m.Passport, m.From.ID) {
		return
	}
	if kind == msgPCPPing {
		resp := pcpMsg{Group: in.grp, Passport: in.passport, Seq: m.Seq, From: in.r.SelfEntry()}
		in.wclSend(m.From, resp.encode(msgPCPPong, in.cfg.KeyBlobSize), nil)
		// A ping from a pooled member refreshes our copy of its entry.
		if st, ok := in.pcp[m.From.ID]; ok {
			st.entry = m.From
			st.lastOK = in.rt.Now()
		}
		return
	}
	if st, ok := in.pcp[m.From.ID]; ok {
		st.entry = m.From
		st.lastOK = in.rt.Now()
	}
}

// SelfEntry returns this member's current private-view entry (fresh
// helper set included), for applications that ship their own
// coordinates in queries (§V-G).
func (in *Instance) SelfEntry() Entry { return in.r.SelfEntry() }

// GroupRootKey returns the epoch-0 group public key: stable
// group-internal key material that survives leader re-election, from
// which applications derive content keys (the pub/sub topic keys).
func (in *Instance) GroupRootKey() crypt.PublicKey { return in.history.At(0) }

// CPU returns the node's crypto CPU meter, so group applications
// charge their symmetric work like every protocol layer.
func (in *Instance) CPU() *crypt.CPUMeter { return in.r.cpu() }

// Config returns the instance's effective configuration.
func (in *Instance) Config() Config { return in.cfg }

// Sim returns the simulator driving this instance's node.
func (in *Instance) Runtime() transport.Transport { return in.rt }
