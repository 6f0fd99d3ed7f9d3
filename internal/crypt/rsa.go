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
type RSAPublicKey struct {
	K *rsa.PublicKey
	// holder is the private half when the key pair was made in this
	// process (NewRSAPrivateKey), which lets rsaSeal speculate the
	// holder's unwrap (see spec.go); nil for keys parsed from outside.
	holder *rsa.PrivateKey
}

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
	return &RSAPrivateKey{K: k, pub: &RSAPublicKey{K: &k.PublicKey, holder: k}}
}

// Suite identifies the key as rsa2048.
func (p *RSAPrivateKey) Suite() SuiteID { return SuiteRSA2048 }

// Public returns the wrapped public half (stable across calls).
func (p *RSAPrivateKey) Public() PublicKey {
	if p.pub == nil {
		p.pub = &RSAPublicKey{K: &p.K.PublicKey, holder: p.K}
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
	k := NewRSAPrivateKey(key)
	// Every in-process parse of this key now yields the wrapper that
	// knows its holder.
	internPublicKey(MarshalPublicKey(k.pub), k.pub)
	return k, nil
}

func rsaPub(pub PublicKey) (*RSAPublicKey, error) {
	p, ok := pub.(*RSAPublicKey)
	if !ok {
		return nil, fmt.Errorf("crypt: rsa2048 suite got %T public key", pub)
	}
	return p, nil
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
	if rsa.VerifyPKCS1v15(p.K, 0, h[:], sig) != nil {
		return ErrBadSignature
	}
	return nil
}

func (rsaSuite) MarshalPublicKey(pub PublicKey) []byte {
	p, err := rsaPub(pub)
	if err != nil {
		panic(err.Error())
	}
	der, err := x509.MarshalPKIXPublicKey(p.K)
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
// fresh AES key followed by the AES-GCM ciphertext. When pub's holder
// is in this process, its unwrap is queued for a spare core.
func rsaSeal(m *CPUMeter, pub *RSAPublicKey, plaintext []byte) ([]byte, error) {
	key, err := NewSymKey()
	if err != nil {
		return nil, err
	}
	h := sha256Pool.Get().(hash.Hash)
	start := time.Now()
	wrapped, err := rsa.EncryptOAEP(h, rand.Reader, pub.K, key, nil)
	sha256Pool.Put(h)
	if m != nil {
		m.RSA += time.Since(start)
		m.RSAEncs++
	}
	if err != nil {
		return nil, fmt.Errorf("crypt: OAEP encrypt: %w", err)
	}
	if pub.holder != nil {
		speculate(pub.holder, wrapped)
	}
	body, err := SealSymOnce(m, key, plaintext)
	if err != nil {
		return nil, err
	}
	w := wire.NewWriter(2 + len(wrapped) + len(body))
	w.Bytes16(wrapped)
	w.Raw(body)
	return w.Bytes(), nil
}

// rsaOpen decrypts an rsaSeal ciphertext with the private key. The
// meter is charged the unwrap's own time wherever it ran.
func rsaOpen(m *CPUMeter, priv *rsa.PrivateKey, ct []byte) ([]byte, error) {
	r := wire.NewReader(ct)
	wrapped := r.Bytes16()
	body := r.Rest()
	if r.Err() != nil || len(wrapped) == 0 {
		return nil, ErrDecrypt
	}
	key, took, err := unwrap(priv, wrapped)
	if m != nil {
		m.RSA += took
		m.RSADecs++
	}
	if err != nil {
		return nil, ErrDecrypt
	}
	return OpenSymOnce(m, key, body)
}
