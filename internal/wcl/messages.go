package wcl

import (
	"fmt"

	"whisper/internal/crypt"
	"whisper/internal/identity"
	"whisper/internal/nylon"
	"whisper/internal/transport"
	"whisper/internal/wire"
)

// WCL message tags (inside nylon MsgApp payloads).
const (
	msgForward uint8 = iota + 1
	msgAck
	msgCircSetup
	msgCircAck
	msgCircData
	msgCircCellAck
	msgCircClose
	msgCircStreamAck
)

// Every WCL message is encoded once, into the buffer that goes on the
// wire: the encoders below return frames — the message preceded by the
// headroom nylon.SendApp* fill with their tag — sized exactly, so a
// message costs one allocation however many layers frame it.

// newFrame starts a WCL message of size bytes, tag included.
func newFrame(size int) *wire.Writer { return wire.NewWriterHeadroom(nylon.AppHeadroom, size) }

// frameOf returns the finished message as the frame nylon sends.
func frameOf(w *wire.Writer) []byte { return w.BytesWithHeadroom(nylon.AppHeadroom) }

// viaSize is the encoded size of a via path.
func viaSize(via []identity.NodeID) int { return 1 + 8*len(via) }

// forwardMsg carries an onion and its content one WCL hop. The clear
// fields expose only what the receiving hop inherently knows: who the
// previous hop is (From) and how to send back to it (ViaPath, the nylon
// relays the hop transmission used) — needed so acknowledgements can
// retrace the path. No hop ever sees both endpoints: From is always the
// immediate neighbour, and the next hop is inside the onion.
type forwardMsg struct {
	PathID  uint64
	From    identity.NodeID
	ViaPath []identity.NodeID
	Onion   []byte
	Content []byte
}

func (m *forwardMsg) encode() []byte {
	w := newFrame(1 + 8 + 8 + viaSize(m.ViaPath) + 4 + len(m.Onion) + 4 + len(m.Content))
	w.U8(msgForward)
	w.U64(m.PathID)
	w.U64(uint64(m.From))
	w.U8(uint8(len(m.ViaPath)))
	for _, id := range m.ViaPath {
		w.U64(uint64(id))
	}
	w.Bytes32(m.Onion)
	w.Bytes32(m.Content)
	return frameOf(w)
}

func decodeForward(r *wire.Reader) (*forwardMsg, error) {
	m := &forwardMsg{}
	m.PathID = r.U64()
	m.From = identity.NodeID(r.U64())
	n := int(r.U8())
	if n > 16 {
		n = 16
	}
	for i := 0; i < n; i++ {
		m.ViaPath = append(m.ViaPath, identity.NodeID(r.U64()))
	}
	m.Onion = r.Bytes32()
	m.Content = r.Bytes32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("wcl: decoding forward: %w", err)
	}
	return m, nil
}

func encodeAck(pathID uint64) []byte { return encodeIDMsg(msgAck, pathID) }

// encodeIDMsg frames the control messages that carry one identifier.
func encodeIDMsg(tag uint8, id uint64) []byte {
	w := newFrame(9)
	w.U8(tag)
	w.U64(id)
	return frameOf(w)
}

// circSetupMsg carries a circuit setup onion one hop. It exposes the
// same clear fields as forwardMsg — previous hop and the relays of the
// hop transmission, needed for backward routing — plus the circuit
// identifier relays key their table entries on. The identifier is
// constant along the path, exactly like a one-shot pathID, so it adds
// no correlator the one-shot wire format does not already carry.
type circSetupMsg struct {
	CircID  uint64
	From    identity.NodeID
	ViaPath []identity.NodeID
	Onion   []byte
}

func (m *circSetupMsg) encode() []byte {
	w := newFrame(1 + 8 + 8 + viaSize(m.ViaPath) + 4 + len(m.Onion))
	w.U8(msgCircSetup)
	w.U64(m.CircID)
	w.U64(uint64(m.From))
	w.U8(uint8(len(m.ViaPath)))
	for _, id := range m.ViaPath {
		w.U64(uint64(id))
	}
	w.Bytes32(m.Onion)
	return frameOf(w)
}

func decodeCircSetup(r *wire.Reader) (*circSetupMsg, error) {
	m := &circSetupMsg{}
	m.CircID = r.U64()
	m.From = identity.NodeID(r.U64())
	n := int(r.U8())
	if n > 16 {
		n = 16
	}
	for i := 0; i < n; i++ {
		m.ViaPath = append(m.ViaPath, identity.NodeID(r.U64()))
	}
	m.Onion = r.Bytes32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("wcl: decoding circuit setup: %w", err)
	}
	return m, nil
}

// circDataMsg carries one sealed data cell. Deliberately minimal: no
// sender, no routing — a relay needs only its table entry, so the
// steady-state wire format exposes less than a one-shot forward does.
//
// A cell lives in one buffer from the source to the exit. On the wire
// the datagram reads
//
//	nylon tag | circData header | nonce₀ nonce₁ nonce₂ | type payload | tag₂ tag₁ tag₀
//
// and every hop opens its layer where it lies (crypt.OpenSymInPlace):
// the nonce it consumed and the header in front of it become the
// headroom the next hop's header is written into (frameCircData), the
// tag it checked falls off the end, and the sub-slice travels on.
type circDataMsg struct {
	CircID uint64
	Seq    uint64
	Cell   []byte
}

// circDataHeader is the size of the clear header in front of a sealed
// cell: tag, circuit ID, sequence number, cell length.
const circDataHeader = 1 + 8 + 8 + 4

// newCellWriter starts the one buffer a cell of plainLen plaintext
// bytes travels in: headroom for the nylon tag and the circData header,
// the nonces of all hops, then room for the caller to append the
// plaintext. sealCell finishes it.
func newCellWriter(hops, plainLen int) *wire.Writer {
	w := wire.NewWriterHeadroom(nylon.AppHeadroom+circDataHeader, hops*(crypt.NonceSize+crypt.TagSize)+plainLen)
	w.Extend(hops * crypt.NonceSize)
	return w
}

// sealCell appends the hops' tags to the plaintext written behind
// newCellWriter's nonces and seals every layer in place.
func sealCell(m *crypt.CPUMeter, keys [][]byte, w *wire.Writer) error {
	w.Extend(len(keys) * crypt.TagSize)
	return crypt.SealCellInPlace(m, keys, w.Bytes())
}

// frameCircData puts the circData header in front of the sealed cell
// that is w's message and returns the frame nylon sends — at the source
// into the headroom newCellWriter reserved, at a relay into the bytes
// the previous header and the consumed nonce occupied.
func frameCircData(w *wire.Writer, circID, seq uint64) []byte {
	w.PrependU32(uint32(w.Len()))
	w.PrependU64(seq)
	w.PrependU64(circID)
	w.PrependU8(msgCircData)
	return frameOf(w)
}

// decodeCircData parses the header behind the tag; Cell aliases the
// reader's buffer, circDataHeader bytes into the WCL payload.
func decodeCircData(r *wire.Reader) (circDataMsg, error) {
	var m circDataMsg
	m.CircID = r.U64()
	m.Seq = r.U64()
	m.Cell = r.Bytes32()
	if err := r.Err(); err != nil {
		return m, fmt.Errorf("wcl: decoding circuit data: %w", err)
	}
	return m, nil
}

func encodeCircAck(circID uint64) []byte { return encodeIDMsg(msgCircAck, circID) }

func encodeCircCellAck(circID, seq uint64) []byte {
	w := newFrame(17)
	w.U8(msgCircCellAck)
	w.U64(circID)
	w.U64(seq)
	return frameOf(w)
}

func encodeCircClose(circID uint64) []byte { return encodeIDMsg(msgCircClose, circID) }

// Cell plaintext framing (the innermost layer a circuit exit opens):
// one type byte followed by the raw payload. cellStream payloads carry
// the stream-fragment sub-frame below.
const (
	cellData   uint8 = 1
	cellPing   uint8 = 2
	cellStream uint8 = 3
)

func decodeCellPayload(b []byte) (typ uint8, payload []byte, ok bool) {
	if len(b) == 0 {
		return 0, nil, false
	}
	return b[0], b[1:], true
}

// maxStreamFrags bounds the fragments of one stream message. Together
// with the fragment size it caps what a single SendStream can carry
// (64 Ki fragments of 1 KiB = 64 MiB) and what a receiver
// will ever allocate reassembly bookkeeping for.
const maxStreamFrags = 1 << 16

// DefaultStreamFragSize is the payload bytes carried by one stream
// fragment cell: Circuit.SendStream splits larger payloads into
// fragments of this size. Exported so experiments can chunk comparison
// transports identically.
const DefaultStreamFragSize = 1024

// streamFrag is the plaintext sub-frame inside a cellStream cell: which
// message the fragment belongs to (the per-circuit stream ID), its
// position, and the total fragment count (carried by every fragment so
// the receiver can set up reassembly from any arrival order).
type streamFrag struct {
	StreamID  uint64
	Frag      uint32
	FragCount uint32
	Data      []byte
}

// streamFragHeader is the size of the sub-frame header in front of a
// fragment's data.
const streamFragHeader = 8 + 4 + 4

// writeTo appends the sub-frame to a cell's plaintext.
func (f *streamFrag) writeTo(w *wire.Writer) {
	w.U64(f.StreamID)
	w.U32(f.Frag)
	w.U32(f.FragCount)
	w.Raw(f.Data)
}

func decodeStreamFrag(b []byte) (streamFrag, error) {
	r := wire.NewReader(b)
	var f streamFrag
	f.StreamID = r.U64()
	f.Frag = r.U32()
	f.FragCount = r.U32()
	f.Data = r.Rest()
	if err := r.Err(); err != nil {
		return f, fmt.Errorf("wcl: decoding stream fragment: %w", err)
	}
	if f.FragCount == 0 || f.FragCount > maxStreamFrags {
		return f, fmt.Errorf("wcl: stream fragment count %d out of range", f.FragCount)
	}
	if f.Frag >= f.FragCount {
		return f, fmt.Errorf("wcl: stream fragment index %d >= count %d", f.Frag, f.FragCount)
	}
	return f, nil
}

// streamAckMsg travels backwards along the circuit, like a cell ack,
// and acknowledges stream fragments cumulatively plus selectively: every
// fragment below Cum has arrived, and bit k of Bits reports fragment
// Cum+1+k. It exposes (circID, streamID, positions) to relays on the
// backward path — the same class of cleartext sequencing information the
// per-cell acks already carry.
type streamAckMsg struct {
	CircID   uint64
	StreamID uint64
	Cum      uint32
	Bits     uint64
}

func (m *streamAckMsg) encode() []byte {
	w := newFrame(29)
	w.U8(msgCircStreamAck)
	w.U64(m.CircID)
	w.U64(m.StreamID)
	w.U32(m.Cum)
	w.U64(m.Bits)
	return frameOf(w)
}

func decodeStreamAck(r *wire.Reader) (streamAckMsg, error) {
	var m streamAckMsg
	m.CircID = r.U64()
	m.StreamID = r.U64()
	m.Cum = r.U32()
	m.Bits = r.U64()
	if err := r.Err(); err != nil {
		return m, fmt.Errorf("wcl: decoding stream ack: %w", err)
	}
	return m, nil
}

// Hop addressing blobs embedded inside onion layers. A mix learns its
// successor either as a raw endpoint (the next-to-last hop B, a P-node
// reachable without any setup) or as a node ID (the destination D,
// reachable through the warm route B keeps from their recent gossip).
const (
	addrByEndpoint uint8 = 1
	addrByID       uint8 = 2
)

func encodeAddrEndpoint(ep transport.Endpoint, id identity.NodeID) []byte {
	w := wire.NewWriter(15)
	w.U8(addrByEndpoint)
	w.U32(uint32(ep.IP))
	w.U16(ep.Port)
	w.U64(uint64(id))
	return w.Bytes()
}

func encodeAddrID(id identity.NodeID) []byte {
	w := wire.NewWriter(9)
	w.U8(addrByID)
	w.U64(uint64(id))
	return w.Bytes()
}

type hopAddr struct {
	kind uint8
	ep   transport.Endpoint
	id   identity.NodeID
}

func decodeHopAddr(blob []byte) (hopAddr, error) {
	r := wire.NewReader(blob)
	var a hopAddr
	a.kind = r.U8()
	switch a.kind {
	case addrByEndpoint:
		a.ep = transport.Endpoint{IP: transport.IP(r.U32()), Port: r.U16()}
		a.id = identity.NodeID(r.U64())
	case addrByID:
		a.id = identity.NodeID(r.U64())
	default:
		return a, fmt.Errorf("wcl: unknown hop address kind %d", a.kind)
	}
	if err := r.Err(); err != nil {
		return a, fmt.Errorf("wcl: decoding hop address: %w", err)
	}
	return a, nil
}
