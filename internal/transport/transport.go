// Package transport defines the runtime abstraction every WHISPER
// protocol layer programs against: a datagram plane (addressed
// endpoints, send, per-address receive handlers) and a scheduling plane
// (a clock, one-shot timers, jittered tickers, and a random source).
//
// Two implementations exist. transport/simnet adapts the deterministic
// discrete-event emulator (packages simnet + netem), which is how the
// paper's entire evaluation runs; transport/udp drives the same
// unchanged protocol code over real net.UDPConn sockets. The protocol
// layers (nylon, wcl, ppss and the in-group services on top) never name
// a concrete substrate — simulation is just one backend.
//
// The execution contract both backends honor is the actor-per-node
// model inherited from the paper's SPLAY deployment: for a given node,
// all datagram handlers and timer callbacks run serialized (the
// emulator is globally single-threaded; the UDP transport runs one
// dispatch loop per transport instance). Protocol code therefore needs
// no locks. The Rand source is part of the same contract: it must only
// be used from handler/timer context, or before the transport starts
// delivering events.
package transport

import (
	"fmt"
	"math/rand"
	"time"
)

// IP is a compact overlay network address. Addresses below PrivateBase
// are public; addresses at or above it are private (behind a NAT).
//
// Under the emulated substrate these are the (only) addresses datagrams
// travel between. Under the UDP substrate they are overlay addresses: a
// resolver inside the transport maps them to real socket addresses, the
// way a virtual private overlay decouples its address space from the
// underlay.
type IP uint32

// PrivateBase is the first private IP. The split lets assertions and
// debug output distinguish P-node interfaces from N-node interfaces.
const PrivateBase IP = 1 << 24

// Public reports whether the address is publicly routable.
func (ip IP) Public() bool { return ip < PrivateBase }

func (ip IP) String() string {
	if ip.Public() {
		return fmt.Sprintf("P%d", uint32(ip))
	}
	return fmt.Sprintf("n%d", uint32(ip-PrivateBase))
}

// Endpoint is an (IP, port) pair, the address of a datagram socket.
type Endpoint struct {
	IP   IP
	Port uint16
}

func (e Endpoint) String() string { return fmt.Sprintf("%v:%d", e.IP, e.Port) }

// IsZero reports whether the endpoint is unset.
func (e Endpoint) IsZero() bool { return e == Endpoint{} }

// Datagram is a single unreliable message.
//
// Ownership of Payload travels with the datagram. A sender gives the
// slice up when it calls Send and must not read or write it afterwards;
// the handler a datagram is delivered to owns it from then on, without
// limit in time: it may overwrite it (the WCL opens cell layers in
// place), send a sub-slice of it on, or keep sub-slices of it for good
// (delivered messages alias the datagram they arrived in). A transport
// therefore hands every handler invocation a payload nobody else
// holds: the emulator passes the sender's slice through and copies when
// it duplicates a datagram, the UDP backend allocates per packet read,
// and neither ever recycles a payload buffer. Whoever wants to look at
// a payload after handing the datagram over — a tap, a test injecting
// duplicates — copies it first.
type Datagram struct {
	Src     Endpoint
	Dst     Endpoint
	Payload []byte
}

// WireSize returns the bytes the datagram occupies on the wire,
// including the emulated IP+UDP header overhead.
func (d Datagram) WireSize() int { return len(d.Payload) + HeaderOverhead }

// HeaderOverhead is the per-datagram header cost (IPv4 20 + UDP 8).
const HeaderOverhead = 28

// Handler receives datagrams addressed to an attached IP.
type Handler interface {
	HandleDatagram(dg Datagram)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(Datagram)

// HandleDatagram calls f(dg).
func (f HandlerFunc) HandleDatagram(dg Datagram) { f(dg) }

// Timer is a handle to a scheduled one-shot callback. Cancel prevents
// the callback from running if it has not run yet; both methods are
// safe on handles whose event already fired.
type Timer interface {
	Cancel()
	Stopped() bool
}

// Ticker is a handle to a periodic callback. Stop is idempotent.
type Ticker interface {
	Stop()
}

// Transport is the complete runtime a protocol stack programs against.
//
// Datagram plane: Send routes a datagram towards dg.Dst (ownership of
// the payload passes to the transport); Attach/Detach bind a Handler to
// an overlay IP. Scheduling plane: Now is the time since the transport
// started (virtual for the emulator, monotonic wall clock for UDP);
// After and EveryJitter schedule callbacks on the node's serialized
// dispatch context; Rand is the run's random source, subject to the
// serialization contract in the package comment.
type Transport interface {
	// Now returns the current time as an offset from the transport
	// epoch.
	Now() time.Duration
	// After schedules fn to run d from now. A non-positive d runs fn as
	// a separate event as soon as possible, never inline.
	After(d time.Duration, fn func()) Timer
	// EveryJitter schedules fn every period plus a uniform jitter in
	// [0, jitter). The first firing happens after one (jittered)
	// period. period must be positive.
	EveryJitter(period, jitter time.Duration, fn func()) Ticker
	// Rand returns the random source protocol code draws from.
	Rand() *rand.Rand
	// Send transmits dg towards dg.Dst. Delivery is best-effort and
	// asynchronous; the payload belongs to the receiver after the call
	// (see Datagram).
	Send(dg Datagram)
	// Attach registers h to receive datagrams addressed to ip,
	// replacing any previous handler.
	Attach(ip IP, h Handler)
	// Detach removes the handler for ip; in-flight datagrams to it are
	// dropped at delivery time.
	Detach(ip IP)
}
