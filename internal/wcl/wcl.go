// Package wcl implements the WHISPER communication layer: confidential
// one-way routes over onion paths (§III-A), split across files by role —
// send.go (source-side one-shot path engine), circuit.go (the circuit
// layer amortizing onion setup over message streams), forward.go
// (relay/exit handling), ack.go (backward acknowledgements).
package wcl

import (
	"errors"
	"fmt"
	"time"

	"whisper/internal/crypt"
	"whisper/internal/dedup"
	"whisper/internal/identity"
	"whisper/internal/nylon"
	"whisper/internal/obs"
	"whisper/internal/transport"
)

// Config parameterizes the WCL.
type Config struct {
	// MinPublic is Π: the minimum number of P-nodes the connection
	// backlog maintains (paper default 3).
	MinPublic int
	// Mixes is the number of mixes on each onion path (default 2, the
	// paper's S → A → B → D). Using f mixes tolerates f−1 colluding
	// nodes (§III, footnote 2); the extra middle mixes are P-nodes from
	// the backlog, addressed directly by endpoint.
	Mixes int
	// PathTimeout is how long the source waits for the end-to-end
	// acknowledgement before retrying with an alternative path.
	PathTimeout time.Duration
	// MaxAttempts bounds path attempts per send (default 1+Π: the first
	// try plus Π retries, per the paper's footnote 3).
	MaxAttempts int
	// AckTTL bounds how long hops remember backward-routing state.
	AckTTL time.Duration

	// Circuits opts Send into the circuit layer: a first send to a
	// destination establishes a circuit over the one-shot onion
	// machinery and later sends ride it as RSA-free data cells. Off by
	// default — one-shot remains the wire behavior unless a caller asks
	// for circuits (the PPSS persistent pool turns them on for its
	// members). SendCircuit works regardless of this flag.
	Circuits bool
	// CircuitMaxAge rotates a circuit that has been established longer
	// than this, bounding how long one circuit identifier stays
	// observable on a path (default 15 minutes).
	CircuitMaxAge time.Duration
	// CircuitMaxCells rotates a circuit after this many data cells
	// (default 512).
	CircuitMaxCells int
	// CircuitIdle tears a circuit down after this long without an
	// application send (default 5 minutes).
	CircuitIdle time.Duration
	// CircuitKeepalive is the ping period keeping an established but
	// momentarily quiet circuit's relay entries warm (default 1 minute).
	CircuitKeepalive time.Duration
	// CircuitTableMax bounds the relay-side circuit table (default
	// 4096 entries, LRU-evicted).
	CircuitTableMax int
	// CircuitTTL expires relay-side circuit entries this long after
	// their last use (default 5 minutes).
	CircuitTTL time.Duration
	// CircuitDedupCells bounds the exit-side (circID, seq) cell dedup
	// LRU (default 4096). Invariant: the window must never evict a seq
	// that could still be retransmitted, or a late retransmit would be
	// re-delivered and break exactly-once — withDefaults therefore
	// clamps it to at least 4× StreamWindow (each windowed fragment can
	// be retransmitted under fresh seqs, so a single window of frags
	// can occupy several windows' worth of dedup entries).
	CircuitDedupCells int

	// StreamFragSize is the payload carried by one stream fragment cell
	// (default DefaultStreamFragSize). Circuit.SendStream splits larger
	// payloads into fragments of this size.
	StreamFragSize int
	// StreamWindow is the per-stream sliding send window: the maximum
	// number of unacknowledged fragments in flight (default 32, capped
	// at 64 — the selective-ack bitmap is one 64-bit word).
	StreamWindow int
	// StreamQueueMax bounds the stream messages queued per circuit
	// behind the active one; overflow is shed with ErrStreamBacklog
	// rather than buffered without limit (default 16).
	StreamQueueMax int
	// StreamRetries is how many consecutive retransmission rounds
	// without any acknowledged progress a stream tolerates before the
	// path is declared broken and the whole message falls back to a
	// one-shot send (default 4).
	StreamRetries int

	// Obs is the observability scope the layer's instruments register
	// under. Nil runs unobserved (counters still count).
	Obs *obs.Scope
}

func (c Config) withDefaults() Config {
	if c.MinPublic == 0 {
		c.MinPublic = 3
	}
	if c.Mixes == 0 {
		c.Mixes = 2
	}
	if c.Mixes < 2 {
		c.Mixes = 2 // fewer than two mixes cannot hide both endpoints
	}
	if c.PathTimeout == 0 {
		c.PathTimeout = 5 * time.Second
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 1 + c.MinPublic
	}
	if c.AckTTL == 0 {
		c.AckTTL = time.Minute
	}
	if c.CircuitMaxAge == 0 {
		c.CircuitMaxAge = 15 * time.Minute
	}
	if c.CircuitMaxCells == 0 {
		c.CircuitMaxCells = 512
	}
	if c.CircuitIdle == 0 {
		c.CircuitIdle = 5 * time.Minute
	}
	if c.CircuitKeepalive == 0 {
		c.CircuitKeepalive = time.Minute
	}
	if c.CircuitTableMax == 0 {
		c.CircuitTableMax = 4096
	}
	if c.CircuitTTL == 0 {
		c.CircuitTTL = 5 * time.Minute
	}
	if c.StreamFragSize == 0 {
		c.StreamFragSize = DefaultStreamFragSize
	}
	if c.StreamWindow == 0 {
		c.StreamWindow = 32
	}
	if c.StreamWindow > 64 {
		c.StreamWindow = 64 // sack bitmap is one u64
	}
	if c.StreamQueueMax == 0 {
		c.StreamQueueMax = 16
	}
	if c.StreamRetries == 0 {
		c.StreamRetries = 4
	}
	if c.CircuitDedupCells == 0 {
		c.CircuitDedupCells = 4096
	}
	// Exactly-once invariant: the dedup window must outlive any seq a
	// stream retransmit can still put on the wire (see the field doc).
	if min := 4 * c.StreamWindow; c.CircuitDedupCells < min {
		c.CircuitDedupCells = min
	}
	return c
}

// Helper identifies a P-node that can act as the next-to-last mix
// towards a destination (it holds a warm route to it).
type Helper struct {
	ID       identity.NodeID
	Endpoint transport.Endpoint
	Key      crypt.PublicKey
}

// Dest is everything the source needs to open a confidential route:
// the destination's identity and public key, plus Π helper P-nodes for
// NATted destinations. The PPSS ships this information inside private
// view entries (§IV-B).
type Dest struct {
	ID  identity.NodeID
	Key crypt.PublicKey
	// Endpoint is the destination's public address when it is a P-node:
	// the next-to-last mix can then address it directly, with no
	// pre-established association.
	Endpoint transport.Endpoint
	Helpers  []Helper
}

// Outcome classifies how a confidential send ended (Table I's columns).
type Outcome int

const (
	// Success: the first constructed path delivered and acknowledged.
	Success Outcome = iota
	// AltSuccess: the first path failed but an alternative succeeded.
	AltSuccess
	// Failed: no path delivered within the attempt budget.
	Failed
)

func (o Outcome) String() string {
	switch o {
	case Success:
		return "success"
	case AltSuccess:
		return "alt-success"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Result reports the fate of one confidential send.
type Result struct {
	Outcome Outcome
	// NoAlternative is set on failures that ended because no untried
	// (mix, helper) combination remained — Table I's "No alt." column.
	NoAlternative bool
	// Attempts is the number of paths constructed.
	Attempts int
	// MixesTried / HelpersTried count distinct first/second mixes used.
	MixesTried   int
	HelpersTried int
	// Elapsed is the time from Send to the final outcome.
	Elapsed time.Duration
	// Err carries the reason for a local refusal that never reached the
	// network: ErrStreamBacklog (the circuit's stream queue was full)
	// or ErrStreamTooLarge. Nil for every networked outcome.
	Err error
}

// Stats is a snapshot of send outcomes and hop-level events, read
// through WCL.Stats.
type Stats struct {
	Sent            uint64
	FirstTrySuccess uint64
	AltSuccess      uint64
	Failed          uint64
	NoAltFailed     uint64
	MixesTriedSum   uint64
	HelpersTriedSum uint64
	Delivered       uint64
	ForwardsPeeled  uint64
	PeelErrors      uint64
	DropNoContact   uint64
	AcksForwarded   uint64
	KeyRequests     uint64
	// DupForwards counts exact duplicate forwards suppressed before the
	// peel (network duplication or replay of the same onion).
	DupForwards uint64
	// DupDeliveries counts exit-hop arrivals for an already-delivered
	// path suppressed after the peel (a late retry racing the first
	// attempt's acknowledgement). Neither Delivered nor OnReceive fires
	// for these; the acknowledgement is resent instead.
	DupDeliveries uint64

	// Circuit layer (see circuit.go). Opened counts setup launches,
	// Established successful handshakes, Failed setups that exhausted
	// the attempt budget, Rotated age/volume-triggered replacements,
	// Closed graceful and broken teardowns of established paths.
	CircuitsOpened      uint64
	CircuitsEstablished uint64
	CircuitsFailed      uint64
	CircuitsRotated     uint64
	CircuitsClosed      uint64
	// CellsSent/Acked count source-side data+keepalive cells;
	// CellsForwarded relay hops; CellsDelivered exit-hop app payloads.
	CellsSent      uint64
	CellsAcked     uint64
	CellsForwarded uint64
	CellsDelivered uint64
	// DupCells counts exit-hop duplicate cells suppressed (re-acked).
	DupCells uint64
	// CellDrops counts cells dropped at a relay with no table entry
	// (expired, evicted, or never set up).
	CellDrops uint64
	// CellFallbacks counts data cells that timed out on a circuit and
	// were re-sent through the one-shot path.
	CellFallbacks uint64
	// Keepalives counts ping cells sent to keep idle circuits warm.
	Keepalives uint64

	// Stream layer (see stream.go). StreamsSent counts SendStream
	// messages launched at the source, StreamsDelivered complete
	// reassembled messages handed to the exit's OnReceive,
	// StreamFragsSent/StreamFragsRecv individual fragment cells
	// (retransmissions included on the send side, duplicates excluded
	// on the receive side), StreamRetransmits re-sent fragments,
	// DupStreamFrags exit-side duplicate fragments (re-acked),
	// StreamsShed SendStream calls refused with ErrStreamBacklog or
	// ErrStreamTooLarge, StreamFallbacks stream messages re-sent whole
	// through the one-shot engine after their path broke.
	StreamsSent       uint64
	StreamsDelivered  uint64
	StreamFragsSent   uint64
	StreamFragsRecv   uint64
	StreamRetransmits uint64
	DupStreamFrags    uint64
	StreamsShed       uint64
	StreamFallbacks   uint64

	// CircuitsOpen / CircuitTableEntries are point-in-time gauge values:
	// established source-side circuits and relay-side table entries.
	// StreamWindow is the current window occupancy: stream fragments in
	// flight (sent, unacknowledged) across all circuits of this node.
	CircuitsOpen        int64
	CircuitTableEntries int64
	StreamWindow        int64
}

// met holds the layer's metric instruments (registered when Config.Obs
// is set, standalone otherwise — they count either way).
type met struct {
	sent            *obs.Counter
	firstTrySuccess *obs.Counter
	altSuccess      *obs.Counter
	failed          *obs.Counter
	noAltFailed     *obs.Counter
	mixesTriedSum   *obs.Counter
	helpersTriedSum *obs.Counter
	delivered       *obs.Counter
	forwardsPeeled  *obs.Counter
	peelErrors      *obs.Counter
	dropNoContact   *obs.Counter
	acksForwarded   *obs.Counter
	keyRequests     *obs.Counter
	dupForwards     *obs.Counter
	dupDeliveries   *obs.Counter

	circuitsOpened      *obs.Counter
	circuitsEstablished *obs.Counter
	circuitsFailed      *obs.Counter
	circuitsRotated     *obs.Counter
	circuitsClosed      *obs.Counter
	cellsSent           *obs.Counter
	cellsAcked          *obs.Counter
	cellsForwarded      *obs.Counter
	cellsDelivered      *obs.Counter
	dupCells            *obs.Counter
	cellDrops           *obs.Counter
	cellFallbacks       *obs.Counter
	keepalives          *obs.Counter

	streamsSent       *obs.Counter
	streamsDelivered  *obs.Counter
	streamFragsSent   *obs.Counter
	streamFragsRecv   *obs.Counter
	streamRetransmits *obs.Counter
	dupStreamFrags    *obs.Counter
	streamsShed       *obs.Counter
	streamFallbacks   *obs.Counter

	circuitsOpen *obs.Gauge
	circuitTable *obs.Gauge
	streamWindow *obs.Gauge

	buildMS     *obs.Histogram
	peelMS      *obs.Histogram
	elapsedMS   *obs.Histogram
	establishMS *obs.Histogram
	cellMS      *obs.Histogram
	streamBytes *obs.Histogram
	streamRTT   *obs.Histogram
}

func newMet(sc *obs.Scope) met {
	return met{
		sent:            sc.Counter("wcl_sends_total"),
		firstTrySuccess: sc.Counter("wcl_first_try_success_total"),
		altSuccess:      sc.Counter("wcl_alt_success_total"),
		failed:          sc.Counter("wcl_failed_total"),
		noAltFailed:     sc.Counter("wcl_no_alt_failed_total"),
		mixesTriedSum:   sc.Counter("wcl_mixes_tried_total"),
		helpersTriedSum: sc.Counter("wcl_helpers_tried_total"),
		delivered:       sc.Counter("wcl_delivered_total"),
		forwardsPeeled:  sc.Counter("wcl_forwards_peeled_total"),
		peelErrors:      sc.Counter("wcl_peel_errors_total"),
		dropNoContact:   sc.Counter("wcl_drop_no_contact_total"),
		acksForwarded:   sc.Counter("wcl_acks_forwarded_total"),
		keyRequests:     sc.Counter("wcl_key_requests_total"),
		dupForwards:     sc.Counter("wcl_dup_forwards_total"),
		dupDeliveries:   sc.Counter("wcl_dup_deliveries_total"),

		circuitsOpened:      sc.Counter("wcl_circuits_opened_total"),
		circuitsEstablished: sc.Counter("wcl_circuits_established_total"),
		circuitsFailed:      sc.Counter("wcl_circuits_failed_total"),
		circuitsRotated:     sc.Counter("wcl_circuits_rotated_total"),
		circuitsClosed:      sc.Counter("wcl_circuits_closed_total"),
		cellsSent:           sc.Counter("wcl_cells_sent_total"),
		cellsAcked:          sc.Counter("wcl_cells_acked_total"),
		cellsForwarded:      sc.Counter("wcl_cells_forwarded_total"),
		cellsDelivered:      sc.Counter("wcl_cells_delivered_total"),
		dupCells:            sc.Counter("wcl_dup_cells_total"),
		cellDrops:           sc.Counter("wcl_cell_drops_total"),
		cellFallbacks:       sc.Counter("wcl_cell_fallbacks_total"),
		keepalives:          sc.Counter("wcl_circuit_keepalives_total"),

		streamsSent:       sc.Counter("wcl_streams_sent_total"),
		streamsDelivered:  sc.Counter("wcl_streams_delivered_total"),
		streamFragsSent:   sc.Counter("wcl_stream_frags_sent_total"),
		streamFragsRecv:   sc.Counter("wcl_stream_frags_recv_total"),
		streamRetransmits: sc.Counter("wcl_stream_retransmits_total"),
		dupStreamFrags:    sc.Counter("wcl_dup_stream_frags_total"),
		streamsShed:       sc.Counter("wcl_streams_shed_total"),
		streamFallbacks:   sc.Counter("wcl_stream_fallbacks_total"),

		circuitsOpen: sc.Gauge("wcl_circuits_open"),
		circuitTable: sc.Gauge("wcl_circuit_table_entries"),
		streamWindow: sc.Gauge("wcl_stream_window"),

		buildMS:     sc.Histogram("wcl_onion_build_ms"),
		peelMS:      sc.Histogram("wcl_peel_ms"),
		elapsedMS:   sc.Histogram("wcl_send_elapsed_ms"),
		establishMS: sc.Histogram("wcl_circuit_establish_ms"),
		cellMS:      sc.Histogram("wcl_cell_elapsed_ms"),
		streamBytes: sc.Histogram("wcl_stream_bytes"),
		streamRTT:   sc.Histogram("wcl_stream_rtt_ms"),
	}
}

// ErrNoPath is reported (inside Result) when no usable path exists.
var ErrNoPath = errors.New("wcl: no usable path")

// ErrStreamBacklog reports a SendStream shed because the circuit's
// bounded stream queue was full — backpressure, not a network failure.
var ErrStreamBacklog = errors.New("wcl: stream backlog full")

// ErrStreamTooLarge reports a SendStream payload exceeding the
// fragment-count bound (maxStreamFrags × StreamFragSize bytes).
var ErrStreamTooLarge = errors.New("wcl: stream payload too large")

// WCL is the Whisper communication layer of one node.
type WCL struct {
	node *nylon.Node
	cfg  Config
	rt   transport.Transport
	cb   *Backlog
	cpu  *crypt.CPUMeter

	pending     map[uint64]*pendingSend
	ackState    map[uint64]ackEntry
	ackOrder    []ackExpiry                       // ackState's writes, oldest first (see rememberAck)
	pendingKeys map[identity.NodeID]time.Duration // request time, for expiry

	// Circuit layer state: source-side circuits by destination plus a
	// path-ID index, and the relay-side table (see circuit.go).
	circuits  map[identity.NodeID]*Circuit
	circByID  map[uint64]*circPath
	relayCirc *circTable
	// streamSeq issues node-unique stream identifiers (see stream.go).
	streamSeq uint64
	// deliveredCells gives the exit hop exactly-once delivery of data
	// cells under network duplication (duplicates are re-acked).
	deliveredCells *dedup.Seen[cellKey]
	// streamRecv holds exit-side stream reassembly state, keyed by
	// (circID, streamID). Entries are bounded and expire (see stream.go).
	streamRecv map[streamKey]*streamRecvState

	// seenForwards remembers recently handled forwards (pathID folded
	// with an onion digest, so distinct attempts of one path pass) and
	// makes every hop idempotent under network duplication.
	seenForwards *dedup.Seen[uint64]
	// deliveredPaths remembers path IDs this node has delivered as the
	// exit hop, giving the destination exactly-once delivery across
	// retry attempts of the same send.
	deliveredPaths *dedup.Seen[uint64]

	// OnReceive delivers decrypted payloads at the destination.
	OnReceive func(payload []byte)
	// OnResult, if set, observes the outcome of every send together
	// with its destination. The evaluation harness uses it to apply the
	// paper's accounting (footnote 3: failures of the destination node
	// itself are not WCL route failures).
	OnResult func(dest identity.NodeID, r Result)
	// Trace, when set, emits hop-level trace events (send, forward,
	// peel, deliver, retry, ack, and the circuit cell kinds). The path
	// ID is passed to Emit as the correlation key, which obs.Tracer
	// discards unless the collector is the simulator-only omniscient
	// observer — relay-visible telemetry never carries it (see the obs
	// package's relay-visibility rule).
	Trace *obs.Tracer

	met met
}

// New attaches a WCL to a Nylon node. The node must run with key
// sampling enabled: onion layers need the public keys of the backlog
// members. New takes over the node's OnExchange, OnKeyExchange and
// AppHandler hooks.
func New(node *nylon.Node, cfg Config) (*WCL, error) {
	if !node.Config().KeySampling {
		return nil, errors.New("wcl: nylon key sampling must be enabled")
	}
	cfg = cfg.withDefaults()
	w := &WCL{
		node:           node,
		cfg:            cfg,
		rt:             node.Runtime(),
		cb:             NewBacklog(2 * node.Config().ViewSize),
		cpu:            &crypt.CPUMeter{},
		pending:        make(map[uint64]*pendingSend),
		ackState:       make(map[uint64]ackEntry),
		pendingKeys:    make(map[identity.NodeID]time.Duration),
		circuits:       make(map[identity.NodeID]*Circuit),
		circByID:       make(map[uint64]*circPath),
		seenForwards:   dedup.New[uint64](2048),
		deliveredPaths: dedup.New[uint64](1024),
		deliveredCells: dedup.New[cellKey](cfg.CircuitDedupCells),
		streamRecv:     make(map[streamKey]*streamRecvState),
		met:            newMet(cfg.Obs),
	}
	w.relayCirc = newCircTable(cfg.CircuitTableMax, cfg.CircuitTTL, w.met.circuitTable)
	node.OnExchange = w.onExchange
	node.OnKeyExchange = w.onKeyExchange
	node.AppHandler = w.handleApp
	return w, nil
}

// Node returns the underlying Nylon node.
func (w *WCL) Node() *nylon.Node { return w.node }

// Backlog returns the connection backlog (for inspection).
func (w *WCL) Backlog() *Backlog { return w.cb }

// CPU returns the node's crypto cost meter (Table II data).
func (w *WCL) CPU() *crypt.CPUMeter { return w.cpu }

// Config returns the effective configuration.
func (w *WCL) Config() Config { return w.cfg }

// Stats returns a snapshot of the layer's counters.
func (w *WCL) Stats() Stats {
	return Stats{
		Sent:            w.met.sent.Value(),
		FirstTrySuccess: w.met.firstTrySuccess.Value(),
		AltSuccess:      w.met.altSuccess.Value(),
		Failed:          w.met.failed.Value(),
		NoAltFailed:     w.met.noAltFailed.Value(),
		MixesTriedSum:   w.met.mixesTriedSum.Value(),
		HelpersTriedSum: w.met.helpersTriedSum.Value(),
		Delivered:       w.met.delivered.Value(),
		ForwardsPeeled:  w.met.forwardsPeeled.Value(),
		PeelErrors:      w.met.peelErrors.Value(),
		DropNoContact:   w.met.dropNoContact.Value(),
		AcksForwarded:   w.met.acksForwarded.Value(),
		KeyRequests:     w.met.keyRequests.Value(),
		DupForwards:     w.met.dupForwards.Value(),
		DupDeliveries:   w.met.dupDeliveries.Value(),

		CircuitsOpened:      w.met.circuitsOpened.Value(),
		CircuitsEstablished: w.met.circuitsEstablished.Value(),
		CircuitsFailed:      w.met.circuitsFailed.Value(),
		CircuitsRotated:     w.met.circuitsRotated.Value(),
		CircuitsClosed:      w.met.circuitsClosed.Value(),
		CellsSent:           w.met.cellsSent.Value(),
		CellsAcked:          w.met.cellsAcked.Value(),
		CellsForwarded:      w.met.cellsForwarded.Value(),
		CellsDelivered:      w.met.cellsDelivered.Value(),
		DupCells:            w.met.dupCells.Value(),
		CellDrops:           w.met.cellDrops.Value(),
		CellFallbacks:       w.met.cellFallbacks.Value(),
		Keepalives:          w.met.keepalives.Value(),

		StreamsSent:       w.met.streamsSent.Value(),
		StreamsDelivered:  w.met.streamsDelivered.Value(),
		StreamFragsSent:   w.met.streamFragsSent.Value(),
		StreamFragsRecv:   w.met.streamFragsRecv.Value(),
		StreamRetransmits: w.met.streamRetransmits.Value(),
		DupStreamFrags:    w.met.dupStreamFrags.Value(),
		StreamsShed:       w.met.streamsShed.Value(),
		StreamFallbacks:   w.met.streamFallbacks.Value(),

		CircuitsOpen:        w.met.circuitsOpen.Value(),
		CircuitTableEntries: w.met.circuitTable.Value(),
		StreamWindow:        w.met.streamWindow.Value(),
	}
}

// onExchange feeds the connection backlog from successful gossip
// exchanges and tops up its P-node quota (§III-A).
func (w *WCL) onExchange(ev nylon.ExchangeEvent) {
	w.cb.Insert(ev.Peer, w.rt.Now())
	w.topUpPublics()
}

// onKeyExchange completes an explicit P-node key exchange: the path is
// verified and the key is known, so the node enters the backlog.
func (w *WCL) onKeyExchange(peer nylon.Descriptor) {
	delete(w.pendingKeys, peer.ID)
	w.cb.Insert(peer, w.rt.Now())
}

// topUpPublics enforces the Π P-node minimum in the backlog by
// contacting P-nodes from the PSS view with an explicit key exchange.
// Outstanding requests expire after a grace period so that unanswered
// ones (the P-node died) do not suppress the quota forever.
func (w *WCL) topUpPublics() {
	const keyRequestGrace = 30 * time.Second
	now := w.rt.Now()
	for id, at := range w.pendingKeys {
		if now-at > keyRequestGrace {
			delete(w.pendingKeys, id)
		}
	}
	deficit := w.cfg.MinPublic - w.cb.PublicCount() - len(w.pendingKeys)
	if deficit <= 0 {
		return
	}
	for _, e := range w.node.View() {
		if deficit <= 0 {
			break
		}
		d := e.Val
		if !d.Public || w.cb.Contains(d.ID) || d.ID == w.node.ID() {
			continue
		}
		if _, outstanding := w.pendingKeys[d.ID]; outstanding {
			continue
		}
		if err := w.node.RequestKey(d); err != nil {
			continue
		}
		w.met.keyRequests.Inc()
		w.pendingKeys[d.ID] = now
		deficit--
	}
}
