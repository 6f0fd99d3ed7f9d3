// Package pubsub implements topic-based publish/subscribe inside a
// private group: the fan-out-heavy application layer the ROADMAP names
// beside T-Chord and broadcast. Envelopes carry a short hash of the
// topic (never the topic string) plus a payload encrypted under a
// per-topic key derived from group-internal knowledge; subscriptions
// are expressed as per-member bloom filters piggybacked on PPSS gossip
// shuffles, so relays route envelopes toward probable subscribers
// without ever learning who subscribes to what — a filter bit proves
// nothing, because false positives are part of the design (the
// plausible-deniability argument of Talek-style private pub/sub).
package pubsub

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"

	"whisper/internal/wire"
)

// Filter defaults: m = 256 bits keeps the whole digest smaller than a
// single view entry, k = 4 puts the false-positive rate for a handful
// of subscriptions well under 1%.
const (
	DefaultFilterBits   = 256
	DefaultFilterHashes = 4

	// MaxFilterBytes bounds decoded filters (hostile input).
	MaxFilterBytes = 4096
	// MaxFilterHashes bounds k on decode.
	MaxFilterHashes = 16
)

// Filter is one member's subscription digest: a bloom filter over the
// topic tags the member subscribes to. Filters are versioned so stale
// gossip copies lose to fresher ones, and tunable in both size (m =
// 8*len(Bits)) and hash count (k).
type Filter struct {
	// Version orders digest updates; higher wins during gossip merge.
	Version uint32
	// K is the number of hash probes per tag.
	K uint8
	// Bits is the filter bit array (m = 8*len(Bits) bits).
	Bits []byte
}

// NewFilter returns an empty filter with m bits (rounded up to a whole
// byte, minimum 8) and k hash probes.
func NewFilter(m, k int) *Filter {
	if m <= 0 {
		m = DefaultFilterBits
	}
	if k <= 0 {
		k = DefaultFilterHashes
	}
	if k > MaxFilterHashes {
		k = MaxFilterHashes
	}
	bytes := (m + 7) / 8
	return &Filter{K: uint8(k), Bits: make([]byte, bytes)}
}

// M returns the filter size in bits.
func (f *Filter) M() int { return 8 * len(f.Bits) }

// positions derives the k bit positions for a tag by double hashing
// (Kirsch–Mitzenmacher): the tag is itself a hash, but the probe
// stream is re-derived under a distinct domain so filter bits are
// independent of the on-wire tag bits.
func (f *Filter) position(t TopicTag, i int) int {
	var buf [len(bitDomain) + 4]byte
	copy(buf[:], bitDomain)
	copy(buf[len(bitDomain):], t[:])
	h := sha256.Sum256(buf[:])
	h1 := binary.BigEndian.Uint32(h[0:4])
	h2 := binary.BigEndian.Uint32(h[4:8]) | 1 // odd, so probes cycle through all positions
	return int((h1 + uint32(i)*h2) % uint32(f.M()))
}

const bitDomain = "whisper-pubsub-bit:"

// Add sets the tag's bits.
func (f *Filter) Add(t TopicTag) {
	for i := 0; i < int(f.K); i++ {
		p := f.position(t, i)
		f.Bits[p/8] |= 1 << (p % 8)
	}
}

// Test reports whether the tag may be in the filter. False positives
// occur with the usual bloom probability; false negatives never.
func (f *Filter) Test(t TopicTag) bool {
	if len(f.Bits) == 0 {
		return false
	}
	for i := 0; i < int(f.K); i++ {
		p := f.position(t, i)
		if f.Bits[p/8]&(1<<(p%8)) == 0 {
			return false
		}
	}
	return true
}

// Or merges another filter of identical geometry into f (bitwise OR),
// the operation a relay uses to aggregate the interests it routes for.
func (f *Filter) Or(o *Filter) error {
	if len(o.Bits) != len(f.Bits) || o.K != f.K {
		return errors.New("pubsub: filter geometry mismatch")
	}
	for i, b := range o.Bits {
		f.Bits[i] |= b
	}
	return nil
}

// FillRatio returns the fraction of set bits — the load factor that
// governs the false-positive rate.
func (f *Filter) FillRatio() float64 {
	if len(f.Bits) == 0 {
		return 0
	}
	set := 0
	for _, b := range f.Bits {
		for ; b != 0; b &= b - 1 {
			set++
		}
	}
	return float64(set) / float64(f.M())
}

// Encode serializes the filter for the PPSS digest piggyback.
func (f *Filter) Encode() []byte {
	w := wire.NewWriter(4 + 1 + 2 + len(f.Bits))
	w.U32(f.Version)
	w.U8(f.K)
	w.Bytes16(f.Bits)
	return w.Bytes()
}

// DecodeFilter parses an encoded filter, rejecting hostile sizes.
func DecodeFilter(blob []byte) (*Filter, error) {
	r := wire.NewReader(blob)
	f := &Filter{}
	f.Version = r.U32()
	f.K = r.U8()
	f.Bits = r.Bytes16()
	if err := r.Close(); err != nil {
		return nil, err
	}
	if len(f.Bits) == 0 || len(f.Bits) > MaxFilterBytes {
		return nil, errors.New("pubsub: filter size out of range")
	}
	if f.K == 0 || f.K > MaxFilterHashes {
		return nil, errors.New("pubsub: filter hash count out of range")
	}
	return f, nil
}
