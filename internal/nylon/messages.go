package nylon

import (
	"fmt"

	"whisper/internal/crypt"
	"whisper/internal/identity"
	"whisper/internal/keyss"
	"whisper/internal/pss"
	"whisper/internal/transport"
	"whisper/internal/wire"
)

// Message type tags. App is reserved for payloads of the layers above
// (the WCL rides on it).
const (
	msgShuffleReq uint8 = iota + 1
	msgShuffleResp
	msgRelay
	msgEchoReq
	msgEchoResp
	msgPunchReq
	msgPunchProbe
	msgProbeAck
	msgKeyReq
	msgKeyResp
	// MsgApp carries an opaque payload for the layer above.
	MsgApp
)

type entryWire struct {
	D   Descriptor
	Age uint16
}

// entriesSize is the encoded size of a shuffle buffer.
func entriesSize(entries []pss.Entry[Descriptor]) int {
	n := 1
	for _, e := range entries {
		n += e.Val.encodedSize() + 2
	}
	return n
}

func encodeEntries(w *wire.Writer, entries []pss.Entry[Descriptor]) {
	w.U8(uint8(len(entries)))
	for _, e := range entries {
		e.Val.encode(w)
		w.U16(e.Age)
	}
}

func decodeEntries(r *wire.Reader) []pss.Entry[Descriptor] {
	n := int(r.U8())
	if n > 64 {
		n = 64
	}
	out := make([]pss.Entry[Descriptor], 0, n)
	for i := 0; i < n; i++ {
		d := decodeDescriptor(r)
		age := r.U16()
		if r.Err() != nil {
			return nil
		}
		out = append(out, pss.Entry[Descriptor]{Val: d, Age: age})
	}
	return out
}

// pathSize is the encoded size of a relay path.
func pathSize(path []identity.NodeID) int { return 1 + 8*len(path) }

func encodePath(w *wire.Writer, path []identity.NodeID) {
	w.U8(uint8(len(path)))
	for _, id := range path {
		w.U64(uint64(id))
	}
}

func decodePath(r *wire.Reader) []identity.NodeID {
	n := int(r.U8())
	if n > 16 {
		n = 16
	}
	out := make([]identity.NodeID, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, identity.NodeID(r.U64()))
	}
	return out
}

// shuffleMsg is both the request and the response of one PSS exchange.
// It carries the sender's descriptor, the relay path the request
// travelled (so the response can retrace it and receivers can adjust
// entry routes), the shuffle buffer, and — when key sampling is on —
// the sender's public key (§III-B-2).
type shuffleMsg struct {
	Seq     uint32
	From    Descriptor
	Path    []identity.NodeID // request: relays used requester→partner
	Entries []pss.Entry[Descriptor]
	Key     crypt.PublicKey
}

func (m *shuffleMsg) encode(typ uint8, blobSize int, withKey bool) []byte {
	size := 1 + 4 + m.From.encodedSize() + pathSize(m.Path) + entriesSize(m.Entries) + 1
	if withKey {
		size += keyss.KeySize(blobSize)
	}
	w := wire.NewWriter(size)
	w.U8(typ)
	w.U32(m.Seq)
	m.From.encode(w)
	encodePath(w, m.Path)
	encodeEntries(w, m.Entries)
	if withKey {
		w.Bool(true)
		keyss.EncodeKey(w, m.Key, blobSize)
	} else {
		w.Bool(false)
	}
	return w.Bytes()
}

func decodeShuffle(r *wire.Reader, blobSize int) (*shuffleMsg, error) {
	m := &shuffleMsg{}
	m.Seq = r.U32()
	m.From = decodeDescriptor(r)
	m.Path = decodePath(r)
	m.Entries = decodeEntries(r)
	if r.Bool() {
		m.Key = keyss.DecodeKey(r, blobSize)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("nylon: decoding shuffle: %w", err)
	}
	return m, nil
}

// relayMsg forwards an inner message along a chain of rendezvous nodes.
type relayMsg struct {
	Path  []identity.NodeID // remaining relays to traverse
	Final identity.NodeID
	Inner []byte
}

func (m *relayMsg) encode() []byte {
	w := wire.NewWriter(1 + pathSize(m.Path) + 8 + 4 + len(m.Inner))
	w.U8(msgRelay)
	encodePath(w, m.Path)
	w.U64(uint64(m.Final))
	w.Bytes32(m.Inner)
	return w.Bytes()
}

func decodeRelay(r *wire.Reader) (*relayMsg, error) {
	m := &relayMsg{}
	m.Path = decodePath(r)
	m.Final = identity.NodeID(r.U64())
	m.Inner = r.Bytes32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("nylon: decoding relay: %w", err)
	}
	return m, nil
}

// echoResp carries the externally observed endpoint back to an N-node
// (STUN-style discovery against a P-node).
func encodeEchoResp(observed transport.Endpoint) []byte {
	w := wire.NewWriter(7)
	w.U8(msgEchoResp)
	w.U32(uint32(observed.IP))
	w.U16(observed.Port)
	return w.Bytes()
}

// punchReq asks a peer (over relays) to start probing the sender's
// advertised external endpoint.
type punchReq struct {
	From identity.NodeID
	Ext  transport.Endpoint
	Path []identity.NodeID // path for the reverse punch request, if any
}

func (m *punchReq) encode() []byte {
	w := wire.NewWriter(1 + 8 + 6 + pathSize(m.Path))
	w.U8(msgPunchReq)
	w.U64(uint64(m.From))
	w.U32(uint32(m.Ext.IP))
	w.U16(m.Ext.Port)
	encodePath(w, m.Path)
	return w.Bytes()
}

func decodePunchReq(r *wire.Reader) (*punchReq, error) {
	m := &punchReq{}
	m.From = identity.NodeID(r.U64())
	m.Ext = transport.Endpoint{IP: transport.IP(r.U32()), Port: r.U16()}
	m.Path = decodePath(r)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("nylon: decoding punch request: %w", err)
	}
	return m, nil
}

// keyMsg is the explicit key exchange used when a P-node is inserted
// into the connection backlog outside a regular shuffle (§III-A: "send
// it an empty message to ensure that a valid path exists").
type keyMsg struct {
	From Descriptor
	Key  crypt.PublicKey
}

func (m *keyMsg) encode(typ uint8, blobSize int) []byte {
	w := wire.NewWriter(1 + m.From.encodedSize() + keyss.KeySize(blobSize))
	w.U8(typ)
	m.From.encode(w)
	keyss.EncodeKey(w, m.Key, blobSize)
	return w.Bytes()
}

func decodeKeyMsg(r *wire.Reader, blobSize int) (*keyMsg, error) {
	m := &keyMsg{}
	m.From = decodeDescriptor(r)
	m.Key = keyss.DecodeKey(r, blobSize)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("nylon: decoding key message: %w", err)
	}
	return m, nil
}

func encodeIDMsg(typ uint8, id identity.NodeID) []byte {
	w := wire.NewWriter(9)
	w.U8(typ)
	w.U64(uint64(id))
	return w.Bytes()
}
