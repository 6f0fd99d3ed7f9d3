// Package keyss implements the decentralized public-key sampling
// service of §III-B-2: nodes piggyback their public key on gossip
// exchanges so that every node knows the key of each entry in its
// connection backlog, which is what the WCL needs to build onion
// layers. The store itself is a plain keyed cache; the piggybacking is
// done by the Nylon layer, and the bandwidth it costs is what Fig 6
// measures.
package keyss

import (
	"fmt"

	"whisper/internal/crypt"
	"whisper/internal/identity"
	"whisper/internal/wire"
)

// DefaultKeyBlobSize is the on-the-wire size of one serialized public
// key. The paper's prototype shipped 1 KB keys; padding the DER
// encoding to a fixed blob reproduces that accounting regardless of the
// RSA modulus chosen for a run.
const DefaultKeyBlobSize = 1024

// Store caches public keys learned through gossip. The map is
// allocated on first Put: stacks running with key sampling disabled
// (the large-population scale runs) never pay for it.
type Store struct {
	keys map[identity.NodeID]crypt.PublicKey
}

// NewStore returns an empty key store.
func NewStore() *Store {
	return &Store{}
}

// Put records the key for id, overwriting any previous one.
func (s *Store) Put(id identity.NodeID, pub crypt.PublicKey) {
	if pub == nil {
		return
	}
	if s.keys == nil {
		s.keys = make(map[identity.NodeID]crypt.PublicKey)
	}
	s.keys[id] = pub
}

// Get returns the key for id, or nil if unknown.
func (s *Store) Get(id identity.NodeID) crypt.PublicKey { return s.keys[id] }

// Has reports whether a key is known for id.
func (s *Store) Has(id identity.NodeID) bool { return s.keys[id] != nil }

// Len returns the number of cached keys.
func (s *Store) Len() int { return len(s.keys) }

// Forget drops the key for id (e.g. after the node is declared dead).
func (s *Store) Forget(id identity.NodeID) { delete(s.keys, id) }

// KeySize is the number of bytes EncodeKey writes for a blob size.
func KeySize(blobSize int) int { return 2 + blobSize }

// EncodeKey writes pub as a fixed-size padded blob of its suite-tagged
// serialization. A nil key writes an empty blob of the same size, so
// message sizes stay deterministic. blobSize must be at least the
// serialized key size (a 1024-bit RSA key is 162 bytes of DER, an ecc
// key 65 bytes); an undersized configuration is a programmer error and
// panics with a diagnosis.
func EncodeKey(w *wire.Writer, pub crypt.PublicKey, blobSize int) {
	if pub == nil {
		w.Padded(nil, blobSize)
		return
	}
	der := crypt.MarshalPublicKey(pub)
	if len(der) > blobSize {
		panic(fmt.Sprintf("keyss: KeyBlobSize %d is smaller than the %d-byte serialized key; raise the config", blobSize, len(der)))
	}
	w.Padded(der, blobSize)
}

// DecodeKey reads a key written by EncodeKey. It returns nil (and no
// error) for an empty blob; a malformed non-empty blob is an error
// surfaced through the reader's sticky error by returning nil as well —
// callers treat an unparsable key as absent, per the robustness
// principle for gossip input.
func DecodeKey(r *wire.Reader, blobSize int) crypt.PublicKey {
	der := r.Padded(blobSize)
	if len(der) == 0 {
		return nil
	}
	pub, err := crypt.UnmarshalPublicKey(der)
	if err != nil {
		return nil
	}
	return pub
}
