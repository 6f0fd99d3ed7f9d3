package ppss

import (
	"fmt"
	"time"

	"whisper/internal/crypt"
	"whisper/internal/identity"
	"whisper/internal/keyss"
	"whisper/internal/pss"
	"whisper/internal/wire"
)

// PPSS message kinds (first byte of every WCL payload the PPSS sends).
const (
	msgShuffleReq uint8 = 0x50 + iota // 'P' range, distinct from WCL tags
	msgShuffleResp
	msgJoinReq
	msgJoinResp
	msgApp
	msgPCPPing
	msgPCPPong
)

// extras piggybacks leader-liveness and election state on every
// shuffle, implementing §IV-A's heartbeat dissemination and the
// gossip aggregation of the maximum proposed value.
type extras struct {
	// HBAge is the sender's estimate of the time since the last leader
	// heartbeat.
	HBAge time.Duration
	// Epoch is the sender's current key epoch.
	Epoch uint32
	// Proposal is the highest election proposal seen (0 = no election).
	Proposal uint64
	// Proposer is the private-view entry of the proposal's originator.
	Proposer *Entry
	// Announce carries a new group key after an election.
	Announce *keyAnnounce
	// Digests piggybacks application subscription digests (§ pub/sub):
	// the sender's own plus those of the entries shipped in the same
	// shuffle. Empty unless an application installed a digest, so the
	// feature is zero-cost (one count byte) when unused.
	Digests []SubDigest
}

// keyAnnounce propagates a new group public key, signed by the new
// leader's identity key and accompanied by its (old-epoch) passport.
type keyAnnounce struct {
	Epoch     uint32 // the new epoch
	NewKey    crypt.PublicKey
	Leader    Passport
	LeaderKey crypt.PublicKey
	Sig       []byte
}

func announceBody(group GroupID, epoch uint32, newKey crypt.PublicKey) []byte {
	w := wire.NewWriter(64)
	w.String("whisper-key-announce")
	w.U64(uint64(group))
	w.U32(epoch)
	w.Bytes32(keyDER(newKey))
	return w.Bytes()
}

func keyDER(k crypt.PublicKey) []byte {
	if k == nil {
		return nil
	}
	return crypt.MarshalPublicKey(k)
}

// encodedSize is the number of bytes encode writes.
func (x extras) encodedSize(keyBlob int) int {
	n := 8 + 4 + 8 + 1 + 1 + 1
	if x.Proposer != nil {
		n += x.Proposer.EncodedSize(keyBlob)
	}
	if a := x.Announce; a != nil {
		n += 4 + 2*keyss.KeySize(keyBlob) + a.Leader.encodedSize() + 2 + len(a.Sig)
	}
	for _, d := range x.Digests {
		n += 8 + 4 + 2 + len(d.Blob)
	}
	return n
}

// entriesSize is the encoded size of a counted run of view entries.
func entriesSize(entries []pss.Entry[Entry], keyBlob int) int {
	n := 1
	for _, e := range entries {
		n += e.Val.EncodedSize(keyBlob) + 2
	}
	return n
}

func (x extras) encode(w *wire.Writer, keyBlob int) {
	w.U64(uint64(x.HBAge))
	w.U32(x.Epoch)
	w.U64(x.Proposal)
	if x.Proposer != nil {
		w.Bool(true)
		x.Proposer.encode(w, keyBlob)
	} else {
		w.Bool(false)
	}
	if x.Announce != nil {
		w.Bool(true)
		w.U32(x.Announce.Epoch)
		keyss.EncodeKey(w, x.Announce.NewKey, keyBlob)
		x.Announce.Leader.encode(w)
		keyss.EncodeKey(w, x.Announce.LeaderKey, keyBlob)
		w.Bytes16(x.Announce.Sig)
	} else {
		w.Bool(false)
	}
	w.U8(uint8(len(x.Digests)))
	for _, d := range x.Digests {
		w.U64(uint64(d.Owner))
		w.U32(d.Version)
		w.Bytes16(d.Blob)
	}
}

func decodeExtras(r *wire.Reader, keyBlob int) extras {
	var x extras
	x.HBAge = time.Duration(r.U64())
	x.Epoch = r.U32()
	x.Proposal = r.U64()
	if r.Bool() {
		e := decodeEntry(r, keyBlob)
		x.Proposer = &e
	}
	if r.Bool() {
		a := &keyAnnounce{}
		a.Epoch = r.U32()
		a.NewKey = keyss.DecodeKey(r, keyBlob)
		a.Leader = decodePassport(r)
		a.LeaderKey = keyss.DecodeKey(r, keyBlob)
		a.Sig = r.Bytes16()
		x.Announce = a
	}
	nd := int(r.U8())
	if nd > maxDigestsPerMsg {
		nd = maxDigestsPerMsg
	}
	for i := 0; i < nd; i++ {
		var d SubDigest
		d.Owner = identity.NodeID(r.U64())
		d.Version = r.U32()
		d.Blob = r.Bytes16()
		if r.Err() != nil {
			break
		}
		if len(d.Blob) > maxDigestBlob {
			continue
		}
		x.Digests = append(x.Digests, d)
	}
	return x
}

// shuffleMsg is a PPSS view exchange (request or response).
type shuffleMsg struct {
	Group    GroupID
	Passport Passport
	Seq      uint32
	From     Entry
	Entries  []pss.Entry[Entry]
	Extras   extras
}

func (m *shuffleMsg) encode(kind uint8, keyBlob int) []byte {
	w := wire.NewWriter(1 + 8 + m.Passport.encodedSize() + 4 + m.From.EncodedSize(keyBlob) +
		entriesSize(m.Entries, keyBlob) + m.Extras.encodedSize(keyBlob))
	w.U8(kind)
	w.U64(uint64(m.Group))
	m.Passport.encode(w)
	w.U32(m.Seq)
	m.From.encode(w, keyBlob)
	w.U8(uint8(len(m.Entries)))
	for _, e := range m.Entries {
		e.Val.encode(w, keyBlob)
		w.U16(e.Age)
	}
	m.Extras.encode(w, keyBlob)
	return w.Bytes()
}

func decodeShuffleMsg(r *wire.Reader, keyBlob int) (*shuffleMsg, error) {
	m := &shuffleMsg{}
	m.Group = GroupID(r.U64())
	m.Passport = decodePassport(r)
	m.Seq = r.U32()
	m.From = decodeEntry(r, keyBlob)
	n := int(r.U8())
	if n > 32 {
		n = 32
	}
	for i := 0; i < n; i++ {
		e := decodeEntry(r, keyBlob)
		age := r.U16()
		if r.Err() != nil {
			break
		}
		m.Entries = append(m.Entries, pss.Entry[Entry]{Val: e, Age: age})
	}
	m.Extras = decodeExtras(r, keyBlob)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("ppss: decoding shuffle: %w", err)
	}
	return m, nil
}

// joinReq asks a leader for admission (§IV-A).
type joinReq struct {
	Group GroupID
	Accr  Accreditation
	From  Entry
}

func (m *joinReq) encode(keyBlob int) []byte {
	w := wire.NewWriter(1 + m.Accr.encodedSize() + m.From.EncodedSize(keyBlob))
	w.U8(msgJoinReq)
	m.Accr.encode(w)
	m.From.encode(w, keyBlob)
	return w.Bytes()
}

func decodeJoinReq(r *wire.Reader, keyBlob int) (*joinReq, error) {
	m := &joinReq{}
	m.Accr = decodeAccreditation(r)
	m.Group = m.Accr.Group
	m.From = decodeEntry(r, keyBlob)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("ppss: decoding join request: %w", err)
	}
	return m, nil
}

// joinResp grants admission: the new member's passport, the group key
// history, and a bootstrap sample of the leader's private view.
type joinResp struct {
	Group    GroupID
	Passport Passport
	History  []crypt.PublicKey
	Leader   Entry
	Entries  []pss.Entry[Entry]
}

func (m *joinResp) encode(keyBlob int) []byte {
	w := wire.NewWriter(1 + 8 + m.Passport.encodedSize() + 1 + len(m.History)*keyss.KeySize(keyBlob) +
		m.Leader.EncodedSize(keyBlob) + entriesSize(m.Entries, keyBlob))
	w.U8(msgJoinResp)
	w.U64(uint64(m.Group))
	m.Passport.encode(w)
	w.U8(uint8(len(m.History)))
	for _, k := range m.History {
		keyss.EncodeKey(w, k, keyBlob)
	}
	m.Leader.encode(w, keyBlob)
	w.U8(uint8(len(m.Entries)))
	for _, e := range m.Entries {
		e.Val.encode(w, keyBlob)
		w.U16(e.Age)
	}
	return w.Bytes()
}

func decodeJoinResp(r *wire.Reader, keyBlob int) (*joinResp, error) {
	m := &joinResp{}
	m.Group = GroupID(r.U64())
	m.Passport = decodePassport(r)
	nh := int(r.U8())
	if nh > 64 {
		nh = 64
	}
	for i := 0; i < nh; i++ {
		m.History = append(m.History, keyss.DecodeKey(r, keyBlob))
	}
	m.Leader = decodeEntry(r, keyBlob)
	n := int(r.U8())
	if n > 32 {
		n = 32
	}
	for i := 0; i < n; i++ {
		e := decodeEntry(r, keyBlob)
		age := r.U16()
		if r.Err() != nil {
			break
		}
		m.Entries = append(m.Entries, pss.Entry[Entry]{Val: e, Age: age})
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("ppss: decoding join response: %w", err)
	}
	return m, nil
}

// appMsg carries application payloads between group members, shipping
// the sender's entry so the destination can reply with a single WCL
// path (as the T-Chord queries of §V-G do).
type appMsg struct {
	Group    GroupID
	Passport Passport
	From     Entry
	Payload  []byte
}

func (m *appMsg) encode(keyBlob int) []byte {
	w := wire.NewWriter(1 + 8 + m.Passport.encodedSize() + m.From.EncodedSize(keyBlob) + 4 + len(m.Payload))
	w.U8(msgApp)
	w.U64(uint64(m.Group))
	m.Passport.encode(w)
	m.From.encode(w, keyBlob)
	w.Bytes32(m.Payload)
	return w.Bytes()
}

func decodeAppMsg(r *wire.Reader, keyBlob int) (*appMsg, error) {
	m := &appMsg{}
	m.Group = GroupID(r.U64())
	m.Passport = decodePassport(r)
	m.From = decodeEntry(r, keyBlob)
	m.Payload = r.Bytes32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("ppss: decoding app message: %w", err)
	}
	return m, nil
}

// pcpMsg refreshes a persistent path (§IV-C): ping carries the sender's
// fresh entry; pong answers with the target's fresh entry (updated
// helper set), keeping the route warm transparently to the application.
type pcpMsg struct {
	Group    GroupID
	Passport Passport
	Seq      uint32
	From     Entry
}

func (m *pcpMsg) encode(kind uint8, keyBlob int) []byte {
	w := wire.NewWriter(1 + 8 + m.Passport.encodedSize() + 4 + m.From.EncodedSize(keyBlob))
	w.U8(kind)
	w.U64(uint64(m.Group))
	m.Passport.encode(w)
	w.U32(m.Seq)
	m.From.encode(w, keyBlob)
	return w.Bytes()
}

func decodePCPMsg(r *wire.Reader, keyBlob int) (*pcpMsg, error) {
	m := &pcpMsg{}
	m.Group = GroupID(r.U64())
	m.Passport = decodePassport(r)
	m.Seq = r.U32()
	m.From = decodeEntry(r, keyBlob)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("ppss: decoding pcp message: %w", err)
	}
	return m, nil
}

// groupOf extracts the group ID of any PPSS message without decoding
// the rest, for router dispatch.
func groupOf(kind uint8, r *wire.Reader) (GroupID, bool) {
	switch kind {
	case msgShuffleReq, msgShuffleResp, msgJoinResp, msgApp, msgPCPPing, msgPCPPong:
		return GroupID(r.U64()), r.Err() == nil
	case msgJoinReq:
		// joinReq starts with the accreditation, whose first field is
		// the group.
		return GroupID(r.U64()), r.Err() == nil
	default:
		return 0, false
	}
}
