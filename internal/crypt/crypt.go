// Package crypt provides the cryptographic operations of WHISPER: the
// hybrid sealing used for onion layers, the symmetric content
// encryption under the per-message key k, onion construction and
// peeling (§III-A), and signatures for passports and accreditations
// (§IV-A).
//
// The asymmetric primitives are pluggable (see Suite): the default
// rsa2048 suite reproduces the paper's RSA-OAEP + AES-GCM and PKCS#1
// v1.5 exactly, while the ecc suite replaces them with X25519 ECIES
// and Ed25519 for an order-of-magnitude cheaper hot path.
//
// Every operation optionally charges its wall-clock cost to a CPUMeter,
// which is how the harness reproduces Table II (CPU time per PPSS cycle
// split into symmetric and per-suite asymmetric work).
package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"time"
)

// SymKeySize is the AES key size in bytes (AES-256).
const SymKeySize = 32

// NonceSize and TagSize are what one symmetric layer adds in front of
// and behind its plaintext (AES-GCM's standard nonce and tag). Callers
// that seal or open in place lay their buffers out with them.
const (
	NonceSize = 12
	TagSize   = 16
)

var (
	// ErrDecrypt is returned when a ciphertext fails to open; callers
	// must not learn more than that (uniform decryption failure).
	ErrDecrypt = errors.New("crypt: decryption failed")
	// ErrBadSignature is returned on signature verification failure.
	ErrBadSignature = errors.New("crypt: bad signature")
)

// CPUMeter accumulates processor time spent in cryptographic
// operations, split the way Table II reports it: symmetric (AES) work
// versus asymmetric work, the latter attributed per suite (RSA for
// rsa2048, ECC for ecc).
type CPUMeter struct {
	AES time.Duration
	RSA time.Duration
	ECC time.Duration

	AESOps  uint64
	RSAEncs uint64
	RSADecs uint64
	Signs   uint64
	Verifys uint64

	ECCEncs    uint64
	ECCDecs    uint64
	ECCSigns   uint64
	ECCVerifys uint64
}

// Add merges other into m.
func (m *CPUMeter) Add(other CPUMeter) {
	m.AES += other.AES
	m.RSA += other.RSA
	m.ECC += other.ECC
	m.AESOps += other.AESOps
	m.RSAEncs += other.RSAEncs
	m.RSADecs += other.RSADecs
	m.Signs += other.Signs
	m.Verifys += other.Verifys
	m.ECCEncs += other.ECCEncs
	m.ECCDecs += other.ECCDecs
	m.ECCSigns += other.ECCSigns
	m.ECCVerifys += other.ECCVerifys
}

// Total returns the combined symmetric and asymmetric processor time.
func (m *CPUMeter) Total() time.Duration { return m.AES + m.RSA + m.ECC }

// Asym returns the asymmetric processor time across all suites.
func (m *CPUMeter) Asym() time.Duration { return m.RSA + m.ECC }

// Reset zeroes the meter.
func (m *CPUMeter) Reset() { *m = CPUMeter{} }

func (m *CPUMeter) chargeAES(start time.Time) {
	if m == nil {
		return
	}
	m.AES += time.Since(start)
	m.AESOps++
}

// NewSymKey draws a fresh AES-256 key.
func NewSymKey() ([]byte, error) {
	k := make([]byte, SymKeySize)
	if _, err := rand.Read(k); err != nil {
		return nil, fmt.Errorf("crypt: drawing key: %w", err)
	}
	return k, nil
}

func newGCM(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("crypt: %w", err)
	}
	return cipher.NewGCM(block)
}

// SealSym encrypts plaintext under the symmetric key (nonce || AES-GCM
// ciphertext). This implements the content encryption with the random
// key k of §III-A. Content keys recur across the messages of a stream,
// so the AEAD instance is cached per key.
func SealSym(m *CPUMeter, key, plaintext []byte) ([]byte, error) {
	defer m.chargeAES(time.Now())
	gcm, err := cachedGCM(key)
	if err != nil {
		return nil, err
	}
	return sealWith(gcm, plaintext)
}

// SealSymOnce is SealSym for a key sealed under once, such as a
// one-shot send's content key or a hybrid layer's fresh key. It builds
// the AEAD without the cache, which such keys would only fill: a cache
// of spent keys grows with every message until it is dropped wholesale.
func SealSymOnce(m *CPUMeter, key, plaintext []byte) ([]byte, error) {
	start := time.Now()
	gcm, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	ct, err := sealWith(gcm, plaintext)
	m.chargeAES(start)
	return ct, err
}

// sealWith seals plaintext with a single output allocation sized for
// nonce, ciphertext and tag.
func sealWith(gcm cipher.AEAD, plaintext []byte) ([]byte, error) {
	n := gcm.NonceSize()
	buf := make([]byte, n, n+len(plaintext)+gcm.Overhead())
	if _, err := rand.Read(buf); err != nil {
		return nil, fmt.Errorf("crypt: nonce: %w", err)
	}
	return gcm.Seal(buf, buf, plaintext, nil), nil
}

// OpenSym decrypts a SealSym ciphertext into a fresh buffer; ct is left
// untouched.
func OpenSym(m *CPUMeter, key, ct []byte) ([]byte, error) {
	defer m.chargeAES(time.Now())
	gcm, err := cachedGCM(key)
	if err != nil {
		return nil, err
	}
	return openWith(gcm, nil, ct)
}

// OpenSymOnce opens a SealSymOnce ciphertext, again without the AEAD
// cache.
func OpenSymOnce(m *CPUMeter, key, ct []byte) ([]byte, error) {
	start := time.Now()
	gcm, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	pt, err := openWith(gcm, nil, ct)
	m.chargeAES(start)
	return pt, err
}

// OpenSymInPlace decrypts a SealSym ciphertext where it lies and
// returns the plaintext as the sub-slice ct[NonceSize:len(ct)-TagSize].
// The caller must own ct: it is overwritten, and on failure its
// ciphertext is destroyed.
func OpenSymInPlace(m *CPUMeter, key, ct []byte) ([]byte, error) {
	defer m.chargeAES(time.Now())
	gcm, err := cachedGCM(key)
	if err != nil {
		return nil, err
	}
	if len(ct) < NonceSize {
		return nil, ErrDecrypt
	}
	return openWith(gcm, ct[NonceSize:NonceSize], ct)
}

// openWith opens nonce || ciphertext into dst (nil allocates; the empty
// slice at the ciphertext's own start decrypts in place).
func openWith(gcm cipher.AEAD, dst, ct []byte) ([]byte, error) {
	if len(ct) < gcm.NonceSize() {
		return nil, ErrDecrypt
	}
	pt, err := gcm.Open(dst, ct[:gcm.NonceSize()], ct[gcm.NonceSize():], nil)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}

// fingerprintBlob hashes a marshaled public key down to the 8-byte
// fingerprint format.
func fingerprintBlob(blob []byte) (fp [8]byte) {
	h := sha256.Sum256(blob)
	copy(fp[:], h[:8])
	return fp
}
