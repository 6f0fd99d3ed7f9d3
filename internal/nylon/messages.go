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

// decodeEntries reads a shuffle buffer into sc.entries; the entries'
// routes alias scratch memory like everything else decoded.
func decodeEntries(r *wire.Reader, sc *scratch) []pss.Entry[Descriptor] {
	n := int(r.U8())
	if n > maxWireEntries {
		r.Fail(errCountOverLimit)
		return nil
	}
	sc.entries = sc.entries[:0]
	for i := 0; i < n; i++ {
		d := decodeDescriptor(r, sc)
		age := r.U16()
		if r.Err() != nil {
			return nil
		}
		sc.entries = append(sc.entries, pss.Entry[Descriptor]{Val: d, Age: age})
	}
	return sc.entries
}

// pathSize is the encoded size of a relay path.
func pathSize(path []identity.NodeID) int { return 1 + 8*len(path) }

func encodePath(w *wire.Writer, path []identity.NodeID) {
	w.U8(uint8(len(path)))
	for _, id := range path {
		w.U64(uint64(id))
	}
}

func decodePath(r *wire.Reader, sc *scratch) []identity.NodeID {
	return decodeIDs(r, sc, maxWirePath)
}

// shuffleMsg is the decoded form of both the request and the response of
// one PSS exchange: the sender's descriptor, the relay path the request
// travelled (so the response can retrace it and receivers can adjust
// entry routes), the shuffle buffer, and — when key sampling is on — the
// sender's public key (§III-B-2). Every slice in it aliases the scratch
// record it was decoded into.
type shuffleMsg struct {
	Seq     uint32
	From    Descriptor
	Path    []identity.NodeID // request: relays used requester→partner
	Entries []pss.Entry[Descriptor]
	Key     crypt.PublicKey
}

// encodeShuffle writes one shuffle message straight into the datagram
// that carries it. entries is the sampled buffer (scratch copies of view
// entries, preceded on the wire by the node's own descriptor at age 0
// when withSelf is set); each is written in its shipped form, its route
// rewritten from this node's perspective: for an N-node entry this node
// becomes the first rendezvous (it can reach the node either directly or
// through its own stored route), and the receiver completes the route
// with its own path to this node. The first pass settles each entry's
// route in place and adds up the exact size, the second writes.
func (n *Node) encodeShuffle(typ uint8, seq uint32, path []identity.NodeID, withSelf bool, entries []pss.Entry[Descriptor]) []byte {
	self := n.SelfDescriptor()
	size := 1 + 4 + self.encodedSize() + pathSize(path) + 1 + 1
	count := len(entries)
	if withSelf {
		// Self: the receiver's path to us is the whole route.
		count++
		size += self.encodedSize() + 2
	}
	for i := range entries {
		d := &entries[i].Val
		via := n.shipVia(d)
		if via == identity.Nil || n.usableContact(d.ID) {
			d.Route = nil
		}
		size += d.encodedSize() + 2
		if via != identity.Nil {
			size += 8
		}
	}
	if n.cfg.KeySampling {
		size += keyss.KeySize(n.cfg.KeyBlobSize)
	}

	w := wire.NewWriter(size)
	w.U8(typ)
	w.U32(seq)
	self.encode(w)
	encodePath(w, path)
	w.U8(uint8(count))
	if withSelf {
		self.encode(w)
		w.U16(0)
	}
	for i := range entries {
		e := &entries[i]
		e.Val.encodeVia(w, n.shipVia(&e.Val))
		w.U16(e.Age)
	}
	if n.cfg.KeySampling {
		w.Bool(true)
		keyss.EncodeKey(w, n.ident.Public(), n.cfg.KeyBlobSize)
	} else {
		w.Bool(false)
	}
	return w.Bytes()
}

// shipVia returns what this node puts in front of d's route when it
// ships d: its own ID for every N-node entry but its own, Nil otherwise.
func (n *Node) shipVia(d *Descriptor) identity.NodeID {
	if d.Public || d.ID == n.ident.ID {
		return identity.Nil
	}
	return n.ident.ID
}

func decodeShuffle(r *wire.Reader, sc *scratch, blobSize int) (shuffleMsg, error) {
	var m shuffleMsg
	m.Seq = r.U32()
	m.From = decodeDescriptor(r, sc)
	m.Path = decodePath(r, sc)
	m.Entries = decodeEntries(r, sc)
	if r.Bool() {
		m.Key = keyss.DecodeKey(r, blobSize)
	}
	if err := r.Err(); err != nil {
		return shuffleMsg{}, fmt.Errorf("nylon: decoding shuffle: %w", err)
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

func decodeRelay(r *wire.Reader, sc *scratch) (relayMsg, error) {
	var m relayMsg
	m.Path = decodePath(r, sc)
	m.Final = identity.NodeID(r.U64())
	m.Inner = r.Bytes32()
	if err := r.Err(); err != nil {
		return relayMsg{}, fmt.Errorf("nylon: decoding relay: %w", err)
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

func decodePunchReq(r *wire.Reader, sc *scratch) (punchReq, error) {
	var m punchReq
	m.From = identity.NodeID(r.U64())
	m.Ext = transport.Endpoint{IP: transport.IP(r.U32()), Port: r.U16()}
	m.Path = decodePath(r, sc)
	if err := r.Err(); err != nil {
		return punchReq{}, fmt.Errorf("nylon: decoding punch request: %w", err)
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

func decodeKeyMsg(r *wire.Reader, sc *scratch, blobSize int) (keyMsg, error) {
	var m keyMsg
	m.From = decodeDescriptor(r, sc)
	m.Key = keyss.DecodeKey(r, blobSize)
	if err := r.Err(); err != nil {
		return keyMsg{}, fmt.Errorf("nylon: decoding key message: %w", err)
	}
	return m, nil
}

func encodeIDMsg(typ uint8, id identity.NodeID) []byte {
	w := wire.NewWriter(9)
	w.U8(typ)
	w.U64(uint64(id))
	return w.Bytes()
}
