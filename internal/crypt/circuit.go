package crypt

import (
	"crypto/hkdf"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"time"

	"whisper/internal/wire"
)

// Circuit cryptography: the key schedule and cell sealing behind the
// WCL circuit layer. A circuit amortizes the onion cost of §III-A over
// a stream of messages: one setup onion (RSA per hop, exactly like a
// one-shot send) distributes a per-hop symmetric key derived from a
// fresh session secret, after which every data cell costs one AEAD
// seal/open per hop and zero RSA operations.

// CircuitSecretSize is the session secret length in bytes. The secret
// is drawn fresh per circuit and never leaves the source; hops only
// ever see their own derived key.
const CircuitSecretSize = 32

// NewCircuitSecret draws a fresh circuit session secret.
func NewCircuitSecret() ([]byte, error) {
	s := make([]byte, CircuitSecretSize)
	if _, err := rand.Read(s); err != nil {
		return nil, fmt.Errorf("crypt: drawing circuit secret: %w", err)
	}
	return s, nil
}

// DeriveCircuitKeys expands the session secret into one AES-256 key per
// hop with HKDF-Expand (the secret is uniformly random, so the extract
// step is unnecessary). The per-hop info string domain-separates the
// keys: compromising hop i's key reveals nothing about any other hop's.
func DeriveCircuitKeys(secret []byte, hops int) ([][]byte, error) {
	if len(secret) != CircuitSecretSize {
		return nil, fmt.Errorf("crypt: circuit secret must be %d bytes, got %d", CircuitSecretSize, len(secret))
	}
	if hops <= 0 {
		return nil, fmt.Errorf("crypt: circuit needs at least one hop")
	}
	keys := make([][]byte, hops)
	for i := range keys {
		k, err := hkdf.Expand(sha256.New, secret, fmt.Sprintf("whisper/circuit/hop/%d", i), SymKeySize)
		if err != nil {
			return nil, fmt.Errorf("crypt: deriving circuit key %d: %w", i, err)
		}
		keys[i] = k
	}
	return keys, nil
}

// CircuitHop describes one node on a circuit setup path: its public
// key, the addressing blob the previous hop needs to forward to it
// (same convention as Hop), and the symmetric key the setup onion
// delivers to it.
type CircuitHop struct {
	Pub  PublicKey
	Addr []byte
	Key  []byte
}

// BuildCircuitOnion constructs the circuit setup onion. It is the
// BuildOnion layering with one extra field per layer: hop i's layer
// decrypts to (key_i, address of hop i+1, remaining onion), and the
// destination's layer to (key_n, ⊥, final). As with one-shot onions a
// hop learns only its successor — and additionally its own cell key,
// never a neighbour's.
func BuildCircuitOnion(m *CPUMeter, hops []CircuitHop, final []byte) ([]byte, error) {
	if len(hops) == 0 {
		return nil, fmt.Errorf("crypt: empty circuit path")
	}
	last := hops[len(hops)-1]
	seal := newLayerSealer(m)
	w := wire.NewWriter(256 + len(final))
	w.Bytes16(last.Key)
	w.Bytes16(nil) // ⊥: this hop is the exit
	w.Bytes32(final)
	blob, err := seal(last.Pub, w.Bytes())
	if err != nil {
		return nil, fmt.Errorf("crypt: sealing circuit exit layer: %w", err)
	}
	for i := len(hops) - 2; i >= 0; i-- {
		w.Reset()
		w.Bytes16(hops[i].Key)
		w.Bytes16(hops[i+1].Addr)
		w.Bytes32(blob)
		blob, err = seal(hops[i].Pub, w.Bytes())
		if err != nil {
			return nil, fmt.Errorf("crypt: sealing circuit layer %d: %w", i, err)
		}
	}
	return blob, nil
}

// PeelCircuit removes one circuit setup layer with the hop's private
// key, returning the hop's cell key alongside the usual Peel results.
func PeelCircuit(m *CPUMeter, priv PrivateKey, onion []byte) (key, next, inner []byte, exit bool, err error) {
	pt, err := Open(m, priv, onion)
	if err != nil {
		return nil, nil, nil, false, err
	}
	r := wire.NewReader(pt)
	key = r.Bytes16()
	next = r.Bytes16()
	inner = r.Bytes32()
	if err := r.Close(); err != nil {
		return nil, nil, nil, false, fmt.Errorf("crypt: malformed circuit layer: %w", err)
	}
	if len(key) != SymKeySize {
		return nil, nil, nil, false, fmt.Errorf("crypt: circuit layer key is %d bytes, want %d", len(key), SymKeySize)
	}
	return key, next, inner, len(next) == 0, nil
}

// SealCell seals a data cell for a circuit: the payload is wrapped in
// one AEAD layer per hop, innermost for the exit (keys[len-1]),
// outermost for the first mix (keys[0]). Each hop opens exactly one
// layer with OpenSym under its own key. Hop keys recur across the
// cells of a circuit, so the per-key AEAD cache makes the steady state
// allocation-light and — the point of circuits — entirely RSA-free.
//
// The sealed cell is laid out
//
//	nonce₀ nonce₁ … nonceₙ₋₁ | ciphertext | tagₙ₋₁ … tag₁ tag₀
//
// because every layer's plaintext is the next layer's nonce ||
// ciphertext || tag (so an inner nonce travels encrypted under the
// layers outside it; the picture gives positions, which opening a layer
// in place relies on). SealCell allocates that buffer and leaves
// payload untouched; SealCellInPlace is for callers that laid it out
// themselves.
func SealCell(m *CPUMeter, keys [][]byte, payload []byte) ([]byte, error) {
	cell := make([]byte, len(keys)*(NonceSize+TagSize)+len(payload))
	copy(cell[len(keys)*NonceSize:], payload)
	if err := SealCellInPlace(m, keys, cell); err != nil {
		return nil, err
	}
	return cell, nil
}

// SealCellInPlace seals a cell inside the buffer it will travel in.
// cell must be laid out as SealCell documents, with the plaintext
// already at cell[len(keys)*NonceSize : len(cell)-len(keys)*TagSize];
// the nonce and tag regions are overwritten.
func SealCellInPlace(m *CPUMeter, keys [][]byte, cell []byte) error {
	n := len(keys)
	if n == 0 {
		return fmt.Errorf("crypt: sealing cell for empty circuit")
	}
	if len(cell) < n*(NonceSize+TagSize) {
		return fmt.Errorf("crypt: %d-byte buffer cannot hold a %d-hop cell", len(cell), n)
	}
	if _, err := rand.Read(cell[:n*NonceSize]); err != nil {
		return fmt.Errorf("crypt: nonce: %w", err)
	}
	for i := n - 1; i >= 0; i-- {
		start := time.Now()
		gcm, err := cachedGCM(keys[i])
		if err != nil {
			return fmt.Errorf("crypt: sealing cell layer %d: %w", i, err)
		}
		// Layer i's plaintext ends where the tags of the layers inside
		// it end; its own tag lands right behind.
		pt := cell[(i+1)*NonceSize : len(cell)-(i+1)*TagSize]
		gcm.Seal(pt[:0], cell[i*NonceSize:(i+1)*NonceSize], pt, nil)
		m.chargeAES(start)
	}
	return nil
}
