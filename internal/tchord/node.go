package tchord

import (
	"errors"
	"sort"
	"time"

	"whisper/internal/obs"
	"whisper/internal/ppss"
	"whisper/internal/tman"
	"whisper/internal/transport"
	"whisper/internal/wcl"
	"whisper/internal/wire"
)

// Config parameterizes a T-Chord node.
type Config struct {
	// Cycle is the T-Man exchange period (default 30 s — T-Chord
	// converges in a few cycles).
	Cycle time.Duration
	// Jitter desynchronizes cycles (default Cycle/2).
	Jitter time.Duration
	// Successors is the ring neighbour list size per direction.
	Successors int
	// Psi is T-Man's partner-selection parameter.
	Psi int
	// LookupTimeout bounds one end-to-end query.
	LookupTimeout time.Duration
	// MaxHops caps greedy routing (loop protection during convergence).
	MaxHops int
	// PinRing keeps ring neighbours in the PPSS persistent connection
	// pool, as §V-G describes (persistent WCL paths for Chord links).
	PinRing bool
	// Obs is the scope T-Chord instruments register under. Nil defaults
	// to the instance's group scope.
	Obs *obs.Scope
}

func (c Config) withDefaults() Config {
	if c.Cycle == 0 {
		c.Cycle = 30 * time.Second
	}
	if c.Jitter == 0 {
		c.Jitter = c.Cycle / 2
	}
	if c.Successors == 0 {
		c.Successors = 4
	}
	if c.Psi == 0 {
		c.Psi = 3
	}
	if c.LookupTimeout == 0 {
		c.LookupTimeout = 30 * time.Second
	}
	if c.MaxHops == 0 {
		c.MaxHops = 32
	}
	return c
}

// Node is one T-Chord participant inside a private group.
type Node struct {
	inst *ppss.Instance
	rt   transport.Transport
	cfg  Config
	cid  ChordID

	succ    *tman.View[peer]
	pred    *tman.View[peer]
	fingers map[int]peer
	store   map[ChordID]storeEntry

	pending map[uint64]*pendingLookup
	qid     uint64
	ticker  transport.Ticker
	stopped bool

	st       Stats
	lookupMS *obs.Histogram
}

type storeEntry struct {
	key   string
	value []byte
}

type pendingLookup struct {
	key      ChordID
	qid      uint64
	start    time.Duration
	timer    transport.Timer
	done     func(LookupResult)
	attempts int
	op       uint8
	skey     string
	value    []byte
}

// New attaches a T-Chord node to a PPSS instance. It subscribes to its
// own message tags, so other gossip protocols (broadcast, aggregation)
// can share the same group.
func New(inst *ppss.Instance, cfg Config) *Node {
	cfg = cfg.withDefaults()
	self := peerOf(inst.SelfEntry())
	if cfg.Obs == nil {
		cfg.Obs = inst.Obs()
	}
	n := &Node{
		inst:     inst,
		rt:       instRuntime(inst),
		cfg:      cfg,
		lookupMS: cfg.Obs.Histogram("tchord_lookup_ms"),
		cid:      self.CID,
		succ:     tman.New(self, cfg.Successors, succRanker{}),
		pred:     tman.New(self, cfg.Successors, predRanker{}),
		fingers:  make(map[int]peer),
		store:    make(map[ChordID]storeEntry),
		pending:  make(map[uint64]*pendingLookup),
	}
	obs.Register(cfg.Obs, &n.st)
	for _, tag := range []uint8{tagTManReq, tagTManResp, tagLookupReq, tagLookupResp} {
		inst.Subscribe(tag, n.handle)
	}
	return n
}

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() Stats { return n.st }

// instSim extracts the simulator driving the instance's node.
func instRuntime(inst *ppss.Instance) transport.Transport { return inst.Runtime() }

// ID returns the node's ring position.
func (n *Node) ID() ChordID { return n.cid }

// Instance returns the underlying PPSS instance.
func (n *Node) Instance() *ppss.Instance { return n.inst }

// Successor returns the current best successor.
func (n *Node) Successor() (ppss.Entry, bool) {
	p, ok := n.succ.Best()
	return p.E, ok
}

// Predecessor returns the current best predecessor.
func (n *Node) Predecessor() (ppss.Entry, bool) {
	p, ok := n.pred.Best()
	return p.E, ok
}

// Neighbors returns the successor list (best first).
func (n *Node) Neighbors() []ppss.Entry {
	var out []ppss.Entry
	for _, p := range n.succ.Entries() {
		out = append(out, p.E)
	}
	return out
}

// StoreSize returns the number of keys this node holds.
func (n *Node) StoreSize() int { return len(n.store) }

// Start begins periodic T-Man exchanges.
func (n *Node) Start() {
	if n.ticker != nil || n.stopped {
		return
	}
	n.ticker = n.rt.EveryJitter(n.cfg.Cycle, n.cfg.Jitter, n.cycle)
}

// Stop halts the node.
func (n *Node) Stop() {
	if n.stopped {
		return
	}
	n.stopped = true
	if n.ticker != nil {
		n.ticker.Stop()
	}
	for _, p := range n.pending {
		p.timer.Cancel()
	}
}

// cycle runs one T-Man round: fold in a random PPSS peer (escape local
// optima), exchange buffers with a ring neighbour, refresh fingers and
// pins.
func (n *Node) cycle() {
	if n.stopped {
		return
	}
	n.succ.SetSelf(peerOf(n.inst.SelfEntry()))
	n.pred.SetSelf(n.succ.Self())
	if e, ok := n.inst.GetPeer(); ok {
		n.merge(peerOf(e))
	}
	partner, ok := n.succ.SelectPartner(n.rt.Rand(), n.cfg.Psi)
	if !ok {
		if partner, ok = n.pred.SelectPartner(n.rt.Rand(), n.cfg.Psi); !ok {
			return
		}
	}
	obs.Inc(&n.st.ExchangesSent)
	n.inst.Send(partner.E, n.encodeExchange(tagTManReq), nil)
	if n.cfg.PinRing {
		n.pinNeighbors()
	}
}

// merge folds a candidate into both directional views and the fingers.
func (n *Node) merge(p peer) {
	if p.E.ID == n.inst.SelfEntry().ID {
		return
	}
	n.succ.Merge(p)
	n.pred.Merge(p)
	n.mergeFinger(p)
}

// mergeFinger updates the finger table: level i holds the best-known
// node at clockwise distance ≥ 2^i (closest to the ideal position).
func (n *Node) mergeFinger(p peer) {
	d := distCW(n.cid, p.CID)
	if d == 0 {
		return
	}
	level := 63
	for ; level >= 0; level-- {
		if d >= 1<<uint(level) {
			break
		}
	}
	cur, ok := n.fingers[level]
	if !ok || distCW(n.cid, p.CID) < distCW(n.cid, cur.CID) {
		n.fingers[level] = p
	}
}

// pinNeighbors keeps the ring links in the PPSS persistent pool.
func (n *Node) pinNeighbors() {
	for _, p := range n.succ.Entries() {
		n.inst.MakePersistent(p.E)
	}
	if p, ok := n.pred.Best(); ok {
		n.inst.MakePersistent(p.E)
	}
}

// owner reports whether this node owns key: key ∈ (predecessor, self].
func (n *Node) owner(key ChordID) bool {
	p, ok := n.pred.Best()
	if !ok {
		return true // alone on the ring
	}
	return between(key, p.CID, n.cid)
}

// closestPreceding picks the best next hop for key: the known node
// whose ID most closely precedes key (classic Chord greedy step),
// falling back to the best successor.
func (n *Node) closestPreceding(key ChordID) (peer, bool) {
	var best peer
	found := false
	consider := func(p peer) {
		if p.CID == n.cid {
			return
		}
		// p must lie strictly between us and the key.
		if !between(p.CID, n.cid, key) {
			return
		}
		if !found || distCW(p.CID, key) < distCW(best.CID, key) {
			best, found = p, true
		}
	}
	//whisper:unordered a CID's level is its distance from us, so fingers hold distinct CIDs and the strict minimum is unique
	for _, p := range n.fingers {
		consider(p)
	}
	for _, p := range n.succ.Entries() {
		consider(p)
	}
	if found {
		return best, true
	}
	if p, ok := n.succ.Best(); ok {
		return p, true
	}
	return peer{}, false
}

// Lookup resolves the owner of key, reporting the result (owner entry
// and hop count) to done. The reply travels back to this node through a
// single WCL path using the coordinates shipped with the query.
func (n *Node) Lookup(key ChordID, done func(LookupResult)) {
	n.lookup(key, opLookup, "", nil, done)
}

// Put stores value under key on the ring node owning it.
func (n *Node) Put(key string, value []byte, done func(LookupResult)) {
	n.lookup(KeyID(key), opPut, key, value, done)
}

// Get fetches the value stored under key.
func (n *Node) Get(key string, done func(LookupResult)) {
	n.lookup(KeyID(key), opGet, key, nil, done)
}

func (n *Node) lookup(key ChordID, op uint8, skey string, value []byte, done func(LookupResult)) {
	obs.Inc(&n.st.LookupsStarted)
	n.startAttempt(&pendingLookup{key: key, start: n.rt.Now(), done: done,
		op: op, skey: skey, value: value})
}

// startAttempt launches (or re-launches after a timeout) one routed
// attempt of a lookup. Applications see a single result; internally a
// query is retried a couple of times because individual WCL paths or
// ring links can be stale.
func (n *Node) startAttempt(pl *pendingLookup) {
	if n.owner(pl.key) {
		obs.Inc(&n.st.LookupsOwned)
		res := n.applyLocal(pl.key, pl.op, pl.skey, pl.value)
		if pl.done != nil {
			pl.done(res)
		}
		return
	}
	pl.attempts++
	if pl.qid == 0 {
		n.qid++
		pl.qid = n.qid
	}
	qid := pl.qid
	pl.timer = n.rt.After(n.cfg.LookupTimeout, func() {
		if n.pending[qid] != pl {
			return
		}
		if pl.attempts < 3 {
			// Same query ID: a late answer to an earlier attempt still
			// completes the lookup.
			n.startAttempt(pl)
			return
		}
		delete(n.pending, qid)
		obs.Inc(&n.st.LookupsFailed)
		if pl.done != nil {
			pl.done(LookupResult{Key: pl.key, Err: errors.New("tchord: lookup timed out")})
		}
	})
	n.pending[qid] = pl
	n.forward(lookupMsg{QID: qid, Key: pl.key, Op: pl.op, SKey: pl.skey, Value: pl.value,
		Origin: n.inst.SelfEntry(), Hops: 0})
}

// applyLocal executes the operation on the local store.
func (n *Node) applyLocal(key ChordID, op uint8, skey string, value []byte) LookupResult {
	res := LookupResult{Key: key, Owner: n.inst.SelfEntry()}
	switch op {
	case opPut:
		n.store[key] = storeEntry{key: skey, value: value}
		obs.Set(&n.st.StoresHeld, uint64(len(n.store)))
	case opGet:
		if se, ok := n.store[key]; ok {
			res.Value = se.value
			res.Found = true
		}
	}
	return res
}

// forward sends the query to the next hop. An unreachable hop (the WCL
// exhausted its alternatives) is treated as failed: it is dropped from
// the ring views and the query is re-routed through the next best hop.
func (n *Node) forward(m lookupMsg) {
	next, ok := n.closestPreceding(m.Key)
	if !ok {
		return // isolated node; origin times out
	}
	m.Hops++
	if m.Hops > n.cfg.MaxHops {
		return
	}
	obs.Inc(&n.st.LookupsForwarded)
	n.inst.Send(next.E, m.encode(n.keyBlob()), func(res wcl.Result) {
		if res.Outcome == wcl.Failed {
			n.removePeer(next)
			n.forward(m)
		}
	})
}

// removePeer drops a failed member from all ring structures.
func (n *Node) removePeer(p peer) {
	n.succ.Remove(p)
	n.pred.Remove(p)
	for lvl, f := range n.fingers {
		if f.E.ID == p.E.ID {
			delete(n.fingers, lvl)
		}
	}
	n.inst.DropPersistent(p.E.ID)
}

func (n *Node) keyBlob() int { return n.inst.Config().KeyBlobSize }

// handle dispatches T-Chord messages arriving through the PPSS.
func (n *Node) handle(from ppss.Entry, payload []byte) {
	if n.stopped || len(payload) == 0 {
		return
	}
	n.merge(peerOf(from))
	r := wire.NewReader(payload)
	switch r.U8() {
	case tagTManReq:
		peers, err := decodeExchange(r, n.keyBlob())
		if err != nil {
			return
		}
		obs.Inc(&n.st.ExchangesReceived)
		n.inst.Send(from, n.encodeExchange(tagTManResp), nil)
		for _, p := range peers {
			n.merge(p)
		}
	case tagTManResp:
		peers, err := decodeExchange(r, n.keyBlob())
		if err != nil {
			return
		}
		for _, p := range peers {
			n.merge(p)
		}
	case tagLookupReq:
		m, err := decodeLookup(r, n.keyBlob())
		if err != nil {
			return
		}
		n.handleLookup(m)
	case tagLookupResp:
		m, err := decodeLookupResp(r, n.keyBlob())
		if err != nil {
			return
		}
		n.handleLookupResp(m)
	}
}

func (n *Node) handleLookup(m lookupMsg) {
	if !n.owner(m.Key) {
		n.forward(m)
		return
	}
	obs.Inc(&n.st.LookupsAnswered)
	res := n.applyLocal(m.Key, m.Op, m.SKey, m.Value)
	resp := lookupRespMsg{QID: m.QID, Key: m.Key, Owner: n.inst.SelfEntry(),
		Hops: m.Hops, Value: res.Value, Found: res.Found}
	// Reply with a single WCL path straight to the origin (§V-G).
	n.inst.Send(m.Origin, resp.encode(n.keyBlob()), nil)
}

func (n *Node) handleLookupResp(m lookupRespMsg) {
	pl, ok := n.pending[m.QID]
	if !ok {
		return
	}
	delete(n.pending, m.QID)
	pl.timer.Cancel()
	obs.Inc(&n.st.LookupsCompleted)
	n.lookupMS.ObserveDuration(n.rt.Now() - pl.start)
	if pl.done != nil {
		pl.done(LookupResult{Key: m.Key, Owner: m.Owner, Hops: m.Hops,
			Value: m.Value, Found: m.Found})
	}
}

// encodeExchange ships the node's current ring knowledge: self,
// successors, predecessors and fingers.
func (n *Node) encodeExchange(tag uint8) []byte {
	seen := map[ChordID]bool{}
	var peers []peer
	add := func(p peer) {
		if !seen[p.CID] {
			seen[p.CID] = true
			peers = append(peers, p)
		}
	}
	add(n.succ.Self())
	for _, p := range n.succ.Entries() {
		add(p)
	}
	for _, p := range n.pred.Entries() {
		add(p)
	}
	// Fingers go in ascending level order: the list is truncated below
	// and the receiver merges in list order, so map order must not
	// decide which fingers travel.
	levels := make([]int, 0, len(n.fingers))
	for lvl := range n.fingers {
		levels = append(levels, lvl)
	}
	sort.Ints(levels)
	for _, lvl := range levels {
		add(n.fingers[lvl])
	}
	if len(peers) > 32 {
		peers = peers[:32]
	}
	return encodePeers(tag, peers, n.keyBlob())
}

func encodePeers(tag uint8, peers []peer, keyBlob int) []byte {
	size := 2
	for _, p := range peers {
		size += p.E.EncodedSize(keyBlob)
	}
	w := wire.NewWriter(size)
	w.U8(tag)
	w.U8(uint8(len(peers)))
	for _, p := range peers {
		p.E.Encode(w, keyBlob)
	}
	return w.Bytes()
}

func decodeExchange(r *wire.Reader, keyBlob int) ([]peer, error) {
	cnt := int(r.U8())
	if cnt > 64 {
		cnt = 64
	}
	out := make([]peer, 0, cnt)
	for i := 0; i < cnt; i++ {
		e := ppss.DecodeEntry(r, keyBlob)
		if r.Err() != nil {
			return nil, r.Err()
		}
		out = append(out, peerOf(e))
	}
	return out, nil
}
