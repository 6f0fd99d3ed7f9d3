// Package wcl implements the WHISPER communication layer: confidential
// one-way routes over onion paths (§III-A), split across files by role —
// send.go (the path-attempt engine and the one-shot send), circuit.go
// (the circuit layer amortizing onion setup over message streams),
// forward.go (relay/exit handling and the hop routes), ack.go
// (backward acknowledgements).
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
	// backlog maintains (paper default 3). A send makes at most 1+Π
	// path attempts: the first try plus Π retries, per the paper's
	// footnote 3.
	MinPublic int
	// Mixes is the number of mixes on each onion path (default 2, the
	// paper's S → A → B → D). Using f mixes tolerates f−1 colluding
	// nodes (§III, footnote 2); the extra middle mixes are P-nodes from
	// the backlog, addressed directly by endpoint.
	Mixes int

	// Obs is the observability scope the layer's instruments register
	// under. Nil runs unobserved (counters still count).
	Obs *obs.Scope
}

func (c Config) withDefaults() Config {
	if c.MinPublic == 0 {
		c.MinPublic = 3
	}
	if c.Mixes < 2 {
		c.Mixes = 2 // fewer than two mixes cannot hide both endpoints
	}
	return c
}

// maxAttempts bounds path attempts per send or circuit setup: 1+Π.
func (c Config) maxAttempts() int { return 1 + c.MinPublic }

// The layer's timing and sizing constants.
const (
	// pathTimeout is the longest a path attempt waits for its end-to-end
	// acknowledgement before retrying with an alternative path: the
	// wait until the node has measured an RTO, and its cap after (see
	// attemptTimeout). It is also a data cell's retransmit budget and a
	// stream's retransmission round.
	pathTimeout = 5 * time.Second
	// ackTTL bounds how long hops remember backward-routing state.
	ackTTL = time.Minute

	// circuitMaxAge rotates a circuit that has been established longer
	// than this, bounding how long one circuit identifier stays
	// observable on a path.
	circuitMaxAge = 15 * time.Minute
	// circuitMaxCells rotates a circuit after this many data cells.
	circuitMaxCells = 512
	// circuitIdle tears a circuit down after this long without an
	// application send.
	circuitIdle = 5 * time.Minute
	// circuitKeepalive is the ping period keeping an established but
	// momentarily quiet circuit's relay entries warm.
	circuitKeepalive = time.Minute
	// circuitTableMax bounds the relay-side circuit table (LRU-evicted).
	circuitTableMax = 4096
	// circuitTTL expires relay-side circuit entries this long after
	// their last use.
	circuitTTL = 5 * time.Minute
	// circuitDedupCells bounds the exit-side (circID, seq) cell dedup
	// LRU. Invariant: the window must never evict a seq that could
	// still be retransmitted, or a late retransmit would be
	// re-delivered and break exactly-once. A data cell is re-sent under
	// its own seq until pathTimeout after its first send, so the window
	// must outlive that budget: hold every cell an exit receives within
	// pathTimeout. It is also at least 4× streamWindow (each windowed
	// fragment can be retransmitted under fresh seqs, so a single
	// window of frags can occupy several windows' worth of dedup
	// entries); the assertion below the block keeps it so.
	circuitDedupCells = 4096

	// streamWindow is the per-stream sliding send window: the maximum
	// number of unacknowledged fragments in flight (at most 64 — the
	// selective-ack bitmap is one 64-bit word).
	streamWindow = 32
	// streamQueueMax bounds the stream messages queued per circuit
	// behind the active one; overflow is shed with ErrStreamBacklog
	// rather than buffered without limit.
	streamQueueMax = 16
	// streamRetries is how many consecutive retransmission rounds
	// without any acknowledged progress a stream tolerates before the
	// path is declared broken and the whole message falls back to a
	// one-shot send.
	streamRetries = 4
)

// Compile-time checks of the relations above: a negative constant does
// not convert to uint.
const (
	_ = uint(circuitDedupCells - 4*streamWindow) // dedup ≥ 4 × window
	_ = uint(64 - streamWindow)                  // window fits the sack bitmap
)

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

// Stats holds the layer's send outcomes, hop-level events and gauges:
// the WCL bumps them in place and WCL.Stats returns a copy. The tags
// name the exported metrics (see obs.Register).
type Stats struct {
	Sent            uint64 `obs:"wcl_sends_total"`
	FirstTrySuccess uint64 `obs:"wcl_first_try_success_total"`
	AltSuccess      uint64 `obs:"wcl_alt_success_total"`
	Failed          uint64 `obs:"wcl_failed_total"`
	NoAltFailed     uint64 `obs:"wcl_no_alt_failed_total"`
	MixesTriedSum   uint64 `obs:"wcl_mixes_tried_total"`
	HelpersTriedSum uint64 `obs:"wcl_helpers_tried_total"`
	Delivered       uint64 `obs:"wcl_delivered_total"`
	ForwardsPeeled  uint64 `obs:"wcl_forwards_peeled_total"`
	PeelErrors      uint64 `obs:"wcl_peel_errors_total"`
	DropNoContact   uint64 `obs:"wcl_drop_no_contact_total"`
	AcksForwarded   uint64 `obs:"wcl_acks_forwarded_total"`
	KeyRequests     uint64 `obs:"wcl_key_requests_total"`
	// DupForwards counts exact duplicate forwards suppressed before the
	// peel (network duplication or replay of the same onion).
	DupForwards uint64 `obs:"wcl_dup_forwards_total"`
	// DupDeliveries counts exit-hop arrivals for an already-delivered
	// path suppressed after the peel (a late retry racing the first
	// attempt's acknowledgement). Neither Delivered nor OnReceive fires
	// for these; the acknowledgement is resent instead.
	DupDeliveries uint64 `obs:"wcl_dup_deliveries_total"`

	// Circuit layer (see circuit.go). Opened counts setup launches,
	// Established successful handshakes, Failed setups that exhausted
	// the attempt budget, Rotated age/volume-triggered replacements,
	// Closed graceful and broken teardowns of established paths.
	CircuitsOpened      uint64 `obs:"wcl_circuits_opened_total"`
	CircuitsEstablished uint64 `obs:"wcl_circuits_established_total"`
	CircuitsFailed      uint64 `obs:"wcl_circuits_failed_total"`
	CircuitsRotated     uint64 `obs:"wcl_circuits_rotated_total"`
	CircuitsClosed      uint64 `obs:"wcl_circuits_closed_total"`
	// CellsSent/Acked count source-side data+keepalive cells;
	// CellsForwarded relay hops; CellsDelivered exit-hop app payloads.
	CellsSent      uint64 `obs:"wcl_cells_sent_total"`
	CellsAcked     uint64 `obs:"wcl_cells_acked_total"`
	CellsForwarded uint64 `obs:"wcl_cells_forwarded_total"`
	CellsDelivered uint64 `obs:"wcl_cells_delivered_total"`
	// DupCells counts exit-hop duplicate cells suppressed (re-acked).
	DupCells uint64 `obs:"wcl_dup_cells_total"`
	// CellDrops counts cells dropped at a relay with no table entry
	// (expired, evicted, or never set up).
	CellDrops uint64 `obs:"wcl_cell_drops_total"`
	// CellFallbacks counts data cells that timed out on a circuit and
	// were re-sent through the one-shot path.
	CellFallbacks uint64 `obs:"wcl_cell_fallbacks_total"`
	// CellRetransmits counts cell copies re-sent on their own circuit
	// after the path's RTO (CellsSent counts each cell once).
	CellRetransmits uint64 `obs:"wcl_cell_retransmits_total"`
	// Keepalives counts ping cells sent to keep idle circuits warm.
	Keepalives uint64 `obs:"wcl_circuit_keepalives_total"`

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
	StreamsSent       uint64 `obs:"wcl_streams_sent_total"`
	StreamsDelivered  uint64 `obs:"wcl_streams_delivered_total"`
	StreamFragsSent   uint64 `obs:"wcl_stream_frags_sent_total"`
	StreamFragsRecv   uint64 `obs:"wcl_stream_frags_recv_total"`
	StreamRetransmits uint64 `obs:"wcl_stream_retransmits_total"`
	DupStreamFrags    uint64 `obs:"wcl_dup_stream_frags_total"`
	StreamsShed       uint64 `obs:"wcl_streams_shed_total"`
	StreamFallbacks   uint64 `obs:"wcl_stream_fallbacks_total"`

	// CircuitsOpen / CircuitTableEntries are point-in-time gauge values:
	// established source-side circuits and relay-side table entries.
	// StreamWindow is the current window occupancy: stream fragments in
	// flight (sent, unacknowledged) across all circuits of this node.
	CircuitsOpen        int64 `obs:"wcl_circuits_open,gauge"`
	CircuitTableEntries int64 `obs:"wcl_circuit_table_entries,gauge"`
	StreamWindow        int64 `obs:"wcl_stream_window,gauge"`
	// PathRTOMs is the node's onion-path retransmission timeout in
	// milliseconds (attemptTimeout), 0 before the first sample.
	PathRTOMs int64 `obs:"wcl_path_rto_ms,gauge"`
}

// ErrNoPath is reported (inside Result) when no usable path exists.
var ErrNoPath = errors.New("wcl: no usable path")

// ErrStreamBacklog reports a SendStream shed because the circuit's
// bounded stream queue was full — backpressure, not a network failure.
var ErrStreamBacklog = errors.New("wcl: stream backlog full")

// ErrStreamTooLarge reports a SendStream payload exceeding the
// fragment-count bound (maxStreamFrags × DefaultStreamFragSize bytes).
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
	// rtt measures onion paths end to end, from one-shot acks and
	// circuit setups; it times every path attempt (attemptTimeout).
	rtt rttEstimator

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

	st Stats
	// Histograms of onion build and peel time, send and cell elapsed
	// time, circuit establishment, stream size and stream RTT. Build
	// and peel time are host-measured; the rest are virtual.
	buildMS, peelMS, elapsedMS, establishMS, cellMS, streamBytes, streamRTT *obs.Histogram
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
		deliveredCells: dedup.New[cellKey](circuitDedupCells),
		streamRecv:     make(map[streamKey]*streamRecvState),
		buildMS:        cfg.Obs.Histogram("wcl_onion_build_ms"),
		peelMS:         cfg.Obs.Histogram("wcl_peel_ms"),
		elapsedMS:      cfg.Obs.Histogram("wcl_send_elapsed_ms"),
		establishMS:    cfg.Obs.Histogram("wcl_circuit_establish_ms"),
		cellMS:         cfg.Obs.Histogram("wcl_cell_elapsed_ms"),
		streamBytes:    cfg.Obs.Histogram("wcl_stream_bytes"),
		streamRTT:      cfg.Obs.Histogram("wcl_stream_rtt_ms"),
	}
	obs.Register(cfg.Obs, &w.st)
	w.relayCirc = newCircTable(circuitTableMax, &w.st.CircuitTableEntries)
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

// Stats returns a snapshot of the layer's counters.
func (w *WCL) Stats() Stats { return w.st }

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
	//whisper:unordered delete-only: each expired request goes whatever the order
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
		obs.Inc(&w.st.KeyRequests)
		w.pendingKeys[d.ID] = now
		deficit--
	}
}
