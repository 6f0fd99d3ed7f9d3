package crypt

import (
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/hkdf"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"time"
)

// The ecc suite: modern elliptic-curve primitives that remove RSA from
// the hot path. Hybrid sealing is ephemeral-static ECIES on X25519 —
// a fresh ephemeral key pair per layer, an ECDH shared secret with the
// recipient's static key, and an HKDF-derived AEAD key — and
// signatures are Ed25519. Layer operations are two orders of magnitude
// cheaper than RSA-2048-OAEP and the 65-byte keys shrink onions and
// gossip descriptors several-fold.
//
// The layer AEAD is AES-256-GCM rather than the ChaCha20-Poly1305 the
// design calls for: golang.org/x/crypto is not vendored and this build
// environment is offline, so the suite is gated to the stdlib AEAD.
// Swapping ciphers is a one-line change in eccAEAD once x/crypto is
// available; the wire layout (ephemeral key ‖ nonce ‖ ciphertext) is
// AEAD-agnostic.

// eccKeyTag is the first byte of a marshaled ecc public key. 0xEC
// cannot collide with PKIX DER, which always starts with 0x30.
const eccKeyTag = 0xEC

// ECCKeyBlobSize is the marshaled ecc public key size: the tag byte,
// the 32-byte Ed25519 signing key, the 32-byte X25519 box key.
// Configurations sizing key-blob fields (keyss.EncodeKey) can shrink
// them to this bound on all-ecc deployments.
const ECCKeyBlobSize = 1 + ed25519.PublicKeySize + 32

const eccKeyBlobSize = ECCKeyBlobSize

// eccEphSize is the size of the ephemeral X25519 public key prefixed
// to every ECIES ciphertext.
const eccEphSize = 32

// eccInfo domain-separates the ECIES key derivation.
const eccInfo = "whisper/ecies/v1"

// ECCPublicKey is an ecc suite public key: an Ed25519 verification key
// and an X25519 key-agreement key.
type ECCPublicKey struct {
	SignKey ed25519.PublicKey
	BoxKey  *ecdh.PublicKey
}

// Suite identifies the key as ecc.
func (p *ECCPublicKey) Suite() SuiteID { return SuiteECC }

// ECCPrivateKey is an ecc suite private key.
type ECCPrivateKey struct {
	signKey ed25519.PrivateKey
	boxKey  *ecdh.PrivateKey
	pub     *ECCPublicKey
}

// Suite identifies the key as ecc.
func (p *ECCPrivateKey) Suite() SuiteID { return SuiteECC }

// Public returns the public half (stable across calls).
func (p *ECCPrivateKey) Public() PublicKey { return p.pub }

type eccSuite struct{}

var eccSuiteInst Suite = eccSuite{}

func (eccSuite) ID() SuiteID  { return SuiteECC }
func (eccSuite) Name() string { return "ecc" }

// Generate creates a fresh Ed25519 + X25519 key pair; bits is ignored
// (curve sizes are fixed).
func (eccSuite) Generate(int) (PrivateKey, error) {
	signPub, signPriv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("crypt: generating ed25519 key: %w", err)
	}
	boxPriv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("crypt: generating x25519 key: %w", err)
	}
	return &ECCPrivateKey{
		signKey: signPriv,
		boxKey:  boxPriv,
		pub:     &ECCPublicKey{SignKey: signPub, BoxKey: boxPriv.PublicKey()},
	}, nil
}

func eccPub(pub PublicKey) (*ECCPublicKey, error) {
	p, ok := pub.(*ECCPublicKey)
	if !ok {
		return nil, fmt.Errorf("crypt: ecc suite got %T public key", pub)
	}
	return p, nil
}

// eccAEAD builds the layer AEAD for a derived key. Gated to
// AES-256-GCM (see the package comment above) until ChaCha20-Poly1305
// is available offline.
func eccAEAD(key []byte) (cipher.AEAD, error) {
	return newGCM(key)
}

// eccDeriveKey turns an ECDH shared secret into the layer AEAD key,
// binding both public values so a transplanted ephemeral cannot be
// replayed against another recipient.
func eccDeriveKey(shared, ephPub, recipPub []byte) ([]byte, error) {
	salt := make([]byte, 0, len(ephPub)+len(recipPub))
	salt = append(salt, ephPub...)
	salt = append(salt, recipPub...)
	return hkdf.Key(sha256.New, shared, salt, eccInfo, SymKeySize)
}

// eccSealWith performs the ECIES seal under a caller-provided
// ephemeral key. Seal draws a fresh one per call; the onion fast path
// (beginOnion) shares one across the layers of a single onion.
func eccSealWith(m *CPUMeter, eph *ecdh.PrivateKey, ephPub []byte, p *ECCPublicKey, plaintext []byte) ([]byte, error) {
	start := time.Now()
	shared, err := eph.ECDH(p.BoxKey)
	if err != nil {
		return nil, fmt.Errorf("crypt: ecies ecdh: %w", err)
	}
	key, err := eccDeriveKey(shared, ephPub, p.BoxKey.Bytes())
	if err != nil {
		return nil, fmt.Errorf("crypt: ecies kdf: %w", err)
	}
	if m != nil {
		m.ECC += time.Since(start)
		m.ECCEncs++
	}
	aesStart := time.Now()
	aead, err := eccAEAD(key)
	if err != nil {
		return nil, err
	}
	n := aead.NonceSize()
	buf := make([]byte, eccEphSize+n, eccEphSize+n+len(plaintext)+aead.Overhead())
	copy(buf, ephPub)
	if _, err := rand.Read(buf[eccEphSize:]); err != nil {
		return nil, fmt.Errorf("crypt: nonce: %w", err)
	}
	out := aead.Seal(buf, buf[eccEphSize:], plaintext, nil)
	m.chargeAES(aesStart)
	return out, nil
}

// eccEphemeral draws a fresh X25519 ephemeral pair, charging the base
// multiplication to the meter.
func eccEphemeral(m *CPUMeter) (*ecdh.PrivateKey, []byte, error) {
	start := time.Now()
	eph, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, nil, fmt.Errorf("crypt: ecies ephemeral: %w", err)
	}
	ephPub := eph.PublicKey().Bytes()
	if m != nil {
		m.ECC += time.Since(start)
	}
	return eph, ephPub, nil
}

// Seal performs ephemeral-static ECIES: output is the 32-byte
// ephemeral X25519 public key followed by nonce ‖ AEAD ciphertext.
func (eccSuite) Seal(m *CPUMeter, pub PublicKey, plaintext []byte) ([]byte, error) {
	p, err := eccPub(pub)
	if err != nil {
		return nil, err
	}
	eph, ephPub, err := eccEphemeral(m)
	if err != nil {
		return nil, err
	}
	return eccSealWith(m, eph, ephPub, p, plaintext)
}

// beginOnion implements the shared-ephemeral onion fast path: one
// ephemeral key pair serves every ecc layer of one onion, replacing a
// base multiplication per layer with a single one per onion (the
// dominant cost of an X25519 seal on this stdlib, which has no
// precomputed base tables for the Montgomery ladder). Layer keys stay
// independent — each HKDF binds the recipient's distinct static key —
// and nonces stay fresh. The repeated ephemeral public key does link
// the layers of one onion to each other, but the WCL already forwards
// the cleartext path identifier to every hop for acknowledgement
// routing, so colluding relays gain nothing they did not have.
func (eccSuite) beginOnion(m *CPUMeter) (sealLayer, error) {
	eph, ephPub, err := eccEphemeral(m)
	if err != nil {
		return nil, err
	}
	return func(pub PublicKey, plaintext []byte) ([]byte, error) {
		p, err := eccPub(pub)
		if err != nil {
			return nil, err
		}
		return eccSealWith(m, eph, ephPub, p, plaintext)
	}, nil
}

// Open decrypts an ECIES ciphertext. Every failure mode — truncated
// blob, invalid curve point, wrong key, tampered ciphertext, an
// rsa2048 blob delivered to an ecc node — collapses to ErrDecrypt.
func (eccSuite) Open(m *CPUMeter, priv PrivateKey, ct []byte) ([]byte, error) {
	p, ok := priv.(*ECCPrivateKey)
	if !ok {
		return nil, ErrDecrypt
	}
	if len(ct) < eccEphSize {
		return nil, ErrDecrypt
	}
	start := time.Now()
	ephPub, err := ecdh.X25519().NewPublicKey(ct[:eccEphSize])
	if err != nil {
		return nil, ErrDecrypt
	}
	shared, err := p.boxKey.ECDH(ephPub)
	if err != nil {
		return nil, ErrDecrypt
	}
	key, err := eccDeriveKey(shared, ct[:eccEphSize], p.boxKey.PublicKey().Bytes())
	if err != nil {
		return nil, ErrDecrypt
	}
	if m != nil {
		m.ECC += time.Since(start)
		m.ECCDecs++
	}
	aesStart := time.Now()
	aead, err := eccAEAD(key)
	if err != nil {
		return nil, ErrDecrypt
	}
	pt, err := openWith(aead, nil, ct[eccEphSize:])
	m.chargeAES(aesStart)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}

func (eccSuite) Sign(m *CPUMeter, priv PrivateKey, msg []byte) ([]byte, error) {
	p, ok := priv.(*ECCPrivateKey)
	if !ok {
		return nil, fmt.Errorf("crypt: ecc suite got %T private key", priv)
	}
	start := time.Now()
	sig := ed25519.Sign(p.signKey, msg)
	if m != nil {
		m.ECC += time.Since(start)
		m.ECCSigns++
	}
	return sig, nil
}

func (eccSuite) Verify(m *CPUMeter, pub PublicKey, msg, sig []byte) error {
	p, err := eccPub(pub)
	if err != nil {
		return ErrBadSignature
	}
	start := time.Now()
	ok := len(sig) == ed25519.SignatureSize && ed25519.Verify(p.SignKey, msg, sig)
	if m != nil {
		m.ECC += time.Since(start)
		m.ECCVerifys++
	}
	if !ok {
		return ErrBadSignature
	}
	return nil
}

func (eccSuite) MarshalPublicKey(pub PublicKey) []byte {
	p, err := eccPub(pub)
	if err != nil {
		panic(err.Error())
	}
	blob := make([]byte, 0, eccKeyBlobSize)
	blob = append(blob, eccKeyTag)
	blob = append(blob, p.SignKey...)
	blob = append(blob, p.BoxKey.Bytes()...)
	if len(blob) != eccKeyBlobSize {
		panic(fmt.Sprintf("crypt: ecc key blob is %d bytes, want %d", len(blob), eccKeyBlobSize))
	}
	return blob
}

func (eccSuite) UnmarshalPublicKey(blob []byte) (PublicKey, error) {
	if len(blob) != eccKeyBlobSize || blob[0] != eccKeyTag {
		return nil, fmt.Errorf("crypt: malformed ecc public key (%d bytes)", len(blob))
	}
	signKey := ed25519.PublicKey(append([]byte(nil), blob[1:1+ed25519.PublicKeySize]...))
	boxKey, err := ecdh.X25519().NewPublicKey(blob[1+ed25519.PublicKeySize:])
	if err != nil {
		return nil, fmt.Errorf("crypt: malformed ecc box key: %w", err)
	}
	return &ECCPublicKey{SignKey: signKey, BoxKey: boxKey}, nil
}
