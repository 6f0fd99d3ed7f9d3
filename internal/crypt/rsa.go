package crypt

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"fmt"
	"hash"
	"time"

	"whisper/internal/wire"
)

// The rsa2048 suite: the paper-era primitives WHISPER was evaluated
// with. Hybrid sealing is RSA-OAEP (SHA-256) over a fresh AES-256 key
// followed by AES-GCM; signatures are PKCS#1 v1.5 over SHA-256; keys
// travel as PKIX DER. Everything here is a verbatim move of the
// pre-suite implementation — same primitives, same randomness
// consumption, same wire bytes — so the fig5 golden is unchanged.

// derSequenceTag is the first byte of every PKIX DER blob (an ASN.1
// SEQUENCE), which is what lets the key parser dispatch rsa2048 blobs
// without an explicit suite tag.
const derSequenceTag = 0x30

// RSAPublicKey wraps an *rsa.PublicKey as a suite-tagged PublicKey.
type RSAPublicKey struct{ K *rsa.PublicKey }

// Suite identifies the key as rsa2048.
func (p *RSAPublicKey) Suite() SuiteID { return SuiteRSA2048 }

// RSAPrivateKey wraps an *rsa.PrivateKey as a suite-tagged PrivateKey.
// Build instances with NewRSAPrivateKey so Public() is stable.
type RSAPrivateKey struct {
	K   *rsa.PrivateKey
	pub *RSAPublicKey
}

// NewRSAPrivateKey wraps an existing RSA private key.
func NewRSAPrivateKey(k *rsa.PrivateKey) *RSAPrivateKey {
	return &RSAPrivateKey{K: k, pub: &RSAPublicKey{K: &k.PublicKey}}
}

// Suite identifies the key as rsa2048.
func (p *RSAPrivateKey) Suite() SuiteID { return SuiteRSA2048 }

// Public returns the wrapped public half (stable across calls).
func (p *RSAPrivateKey) Public() PublicKey {
	if p.pub == nil {
		p.pub = &RSAPublicKey{K: &p.K.PublicKey}
	}
	return p.pub
}

type rsaSuite struct{}

var rsaSuiteInst Suite = rsaSuite{}

func (rsaSuite) ID() SuiteID  { return SuiteRSA2048 }
func (rsaSuite) Name() string { return "rsa2048" }

// rsaDefaultBits sizes generated RSA keys when the caller passes zero
// (1024, as in the paper's era; see identity.DefaultKeyBits).
const rsaDefaultBits = 1024

func (rsaSuite) Generate(bits int) (PrivateKey, error) {
	if bits == 0 {
		bits = rsaDefaultBits
	}
	key, err := rsa.GenerateKey(rand.Reader, bits)
	if err != nil {
		return nil, fmt.Errorf("crypt: generating rsa key: %w", err)
	}
	key.Precompute()
	return NewRSAPrivateKey(key), nil
}

func rsaPub(pub PublicKey) (*rsa.PublicKey, error) {
	p, ok := pub.(*RSAPublicKey)
	if !ok {
		return nil, fmt.Errorf("crypt: rsa2048 suite got %T public key", pub)
	}
	return p.K, nil
}

func (rsaSuite) Seal(m *CPUMeter, pub PublicKey, plaintext []byte) ([]byte, error) {
	p, err := rsaPub(pub)
	if err != nil {
		return nil, err
	}
	return rsaSeal(m, p, plaintext)
}

func (rsaSuite) Open(m *CPUMeter, priv PrivateKey, ct []byte) ([]byte, error) {
	p, ok := priv.(*RSAPrivateKey)
	if !ok {
		return nil, ErrDecrypt
	}
	return rsaOpen(m, p.K, ct)
}

func (rsaSuite) Sign(m *CPUMeter, priv PrivateKey, msg []byte) ([]byte, error) {
	p, ok := priv.(*RSAPrivateKey)
	if !ok {
		return nil, fmt.Errorf("crypt: rsa2048 suite got %T private key", priv)
	}
	start := time.Now()
	defer func() {
		if m != nil {
			m.RSA += time.Since(start)
			m.Signs++
		}
	}()
	h := sha256.Sum256(msg)
	sig, err := rsa.SignPKCS1v15(rand.Reader, p.K, 0, h[:])
	if err != nil {
		return nil, fmt.Errorf("crypt: sign: %w", err)
	}
	return sig, nil
}

func (rsaSuite) Verify(m *CPUMeter, pub PublicKey, msg, sig []byte) error {
	p, err := rsaPub(pub)
	if err != nil {
		return ErrBadSignature
	}
	start := time.Now()
	defer func() {
		if m != nil {
			m.RSA += time.Since(start)
			m.Verifys++
		}
	}()
	h := sha256.Sum256(msg)
	if rsa.VerifyPKCS1v15(p, 0, h[:], sig) != nil {
		return ErrBadSignature
	}
	return nil
}

func (rsaSuite) MarshalPublicKey(pub PublicKey) []byte {
	p, err := rsaPub(pub)
	if err != nil {
		panic(err.Error())
	}
	der, err := x509.MarshalPKIXPublicKey(p)
	if err != nil {
		// Only possible for malformed in-memory keys: programmer error.
		panic(fmt.Sprintf("crypt: marshaling public key: %v", err))
	}
	return der
}

func (rsaSuite) UnmarshalPublicKey(blob []byte) (PublicKey, error) {
	k, err := x509.ParsePKIXPublicKey(blob)
	if err != nil {
		return nil, fmt.Errorf("crypt: parsing public key: %w", err)
	}
	pub, ok := k.(*rsa.PublicKey)
	if !ok {
		return nil, fmt.Errorf("crypt: not an RSA public key: %T", k)
	}
	return &RSAPublicKey{K: pub}, nil
}

// rsaSeal hybrid-encrypts plaintext to pub: an RSA-OAEP-encrypted
// fresh AES key followed by the AES-GCM ciphertext.
func rsaSeal(m *CPUMeter, pub *rsa.PublicKey, plaintext []byte) ([]byte, error) {
	key, err := NewSymKey()
	if err != nil {
		return nil, err
	}
	h := sha256Pool.Get().(hash.Hash)
	start := time.Now()
	wrapped, err := rsa.EncryptOAEP(h, rand.Reader, pub, key, nil)
	sha256Pool.Put(h)
	if m != nil {
		m.RSA += time.Since(start)
		m.RSAEncs++
	}
	if err != nil {
		return nil, fmt.Errorf("crypt: OAEP encrypt: %w", err)
	}
	// The key is fresh and sealed exactly once: bypass the AEAD cache.
	aesStart := time.Now()
	gcm, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	body, err := sealWith(gcm, plaintext)
	m.chargeAES(aesStart)
	if err != nil {
		return nil, err
	}
	w := wire.NewWriter(2 + len(wrapped) + len(body))
	w.Bytes16(wrapped)
	w.Raw(body)
	return w.Bytes(), nil
}

// rsaOpen decrypts an rsaSeal ciphertext with the private key.
func rsaOpen(m *CPUMeter, priv *rsa.PrivateKey, ct []byte) ([]byte, error) {
	r := wire.NewReader(ct)
	wrapped := r.Bytes16()
	body := r.Rest()
	if r.Err() != nil || len(wrapped) == 0 {
		return nil, ErrDecrypt
	}
	h := sha256Pool.Get().(hash.Hash)
	start := time.Now()
	key, err := rsa.DecryptOAEP(h, rand.Reader, priv, wrapped, nil)
	sha256Pool.Put(h)
	if m != nil {
		m.RSA += time.Since(start)
		m.RSADecs++
	}
	if err != nil {
		return nil, ErrDecrypt
	}
	// One-shot layer key: bypass the AEAD cache (see rsaSeal).
	aesStart := time.Now()
	gcm, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	pt, err := openWith(gcm, nil, body)
	m.chargeAES(aesStart)
	return pt, err
}
