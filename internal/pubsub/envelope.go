package pubsub

import (
	"crypto/hkdf"
	"crypto/sha256"

	"whisper/internal/crypt"
	"whisper/internal/wire"
)

// Tag is the PPSS payload tag of pub/sub envelopes (first byte of the
// app payload; broadcast owns 0x60).
const Tag uint8 = 0x70

// TopicTag is the on-wire identifier of a topic: the first four bytes
// of a domain-separated SHA-256 of the topic string. Relays and
// collectors see only this tag; inverting it back to the topic string
// is a preimage problem, and the 32-bit truncation means distinct
// topics may even collide — deliberately, since a collision only costs
// a little extra forwarding while deepening deniability.
type TopicTag [4]byte

// HashTopic derives the canonical tag for a topic string.
func HashTopic(topic string) TopicTag {
	h := sha256.Sum256([]byte("whisper-pubsub-topic:" + topic))
	var t TopicTag
	copy(t[:], h[:4])
	return t
}

// TopicKey derives the per-topic content key from the group's root
// public key and the topic string. Both inputs are group-internal
// knowledge (the root key ships only inside join responses, the topic
// string never leaves the application), so only members who know the
// topic can decrypt its envelopes — a member subscribed to nothing
// relays ciphertext it cannot read. Deriving from the epoch-0 key
// keeps the key stable across leader re-elections.
func TopicKey(groupRoot crypt.PublicKey, topic string) ([]byte, error) {
	secret := crypt.MarshalPublicKey(groupRoot)
	return hkdf.Key(sha256.New, secret, []byte("whisper/pubsub/v1"), topic, crypt.SymKeySize)
}

// Envelope is one published message in flight: the topic tag in the
// clear (routing needs it) and the payload sealed under the topic key.
type Envelope struct {
	// ID is the publisher-drawn random identifier used for duplicate
	// suppression.
	ID uint64
	// Topic is the 4-byte topic tag.
	Topic TopicTag
	// Hops is the remaining relay budget; each forwarder decrements it
	// and drops the envelope at zero, bounding the flood.
	Hops uint8
	// Ct is the AES-256-GCM ciphertext of the application payload under
	// the topic key.
	Ct []byte
}

// MaxEnvelopeCt bounds decoded ciphertexts (hostile input).
const MaxEnvelopeCt = 1 << 20

// Encode serializes the envelope as a PPSS app payload (leading Tag
// byte included).
func (e Envelope) Encode() []byte {
	w := wire.NewWriter(1 + 8 + len(e.Topic) + 1 + 4 + len(e.Ct))
	w.U8(Tag)
	w.U64(e.ID)
	w.Raw(e.Topic[:])
	w.U8(e.Hops)
	w.Bytes32(e.Ct)
	return w.Bytes()
}

// sealTopic and openTopic wrap the symmetric AEAD, charging the
// node's crypto CPU meter like every other layer.
func sealTopic(p *PubSub, key, plaintext []byte) ([]byte, error) {
	return crypt.SealSym(p.inst.CPU(), key, plaintext)
}

func openTopic(p *PubSub, key, ct []byte) ([]byte, error) {
	return crypt.OpenSym(p.inst.CPU(), key, ct)
}

// DecodeEnvelope parses a PPSS app payload carrying an envelope.
func DecodeEnvelope(payload []byte) (Envelope, bool) {
	r := wire.NewReader(payload)
	if r.U8() != Tag {
		return Envelope{}, false
	}
	var e Envelope
	e.ID = r.U64()
	copy(e.Topic[:], r.Raw(4))
	e.Hops = r.U8()
	e.Ct = r.Bytes32()
	if r.Err() != nil || len(e.Ct) > MaxEnvelopeCt {
		return Envelope{}, false
	}
	return e, true
}
