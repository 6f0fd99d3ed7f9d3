package crypt

import "fmt"

// Pluggable crypto suites. A Suite bundles the asymmetric primitives a
// node's identity key commits it to — hybrid seal/open for onion
// layers, signatures for passports and accreditations, and the public
// key wire codec. The onion layering (BuildOnion/Peel), the circuit key
// schedule (DeriveCircuitKeys) and cell sealing are generic over the
// suite: they call the per-hop Seal/Open through the key's suite, so a
// path may even mix hops of different suites.
//
// Wire-level suite tagging rides on the first byte of the marshaled
// public key: PKIX DER (the rsa2048 format) always starts with 0x30
// (an ASN.1 SEQUENCE), while the ecc format starts with the reserved
// tag byte 0xEC. Existing rsa2048 key blobs therefore remain
// byte-identical, and a parser can dispatch without a version field.

// SuiteID identifies a crypto suite. The zero value is SuiteRSA2048,
// so zero-valued configs keep the historical default.
type SuiteID uint8

const (
	// SuiteRSA2048 is the paper-era suite: RSA-OAEP + AES-256-GCM
	// hybrid layers, PKCS#1 v1.5 signatures, PKIX DER keys.
	SuiteRSA2048 SuiteID = iota
	// SuiteECC is the modern suite: X25519 ephemeral-static ECIES +
	// AEAD layers and Ed25519 signatures, with 65-byte tagged keys.
	SuiteECC
)

// String returns the canonical suite name ("rsa2048", "ecc").
func (id SuiteID) String() string {
	switch id {
	case SuiteRSA2048:
		return "rsa2048"
	case SuiteECC:
		return "ecc"
	}
	return fmt.Sprintf("suite(%d)", uint8(id))
}

// ParseSuite maps a canonical suite name (the -suite flag values) to
// its identifier.
func ParseSuite(name string) (SuiteID, error) {
	switch name {
	case "", "rsa2048":
		return SuiteRSA2048, nil
	case "ecc":
		return SuiteECC, nil
	}
	return 0, fmt.Errorf("crypt: unknown suite %q (want rsa2048 or ecc)", name)
}

// PublicKey is a suite-tagged public key. Concrete values are always
// pointers to a suite's own wrapper type, which keeps them usable as
// map keys with the interning semantics callers rely on: unmarshaling
// identical key blobs yields one shared instance.
type PublicKey interface {
	// Suite identifies the suite the key belongs to.
	Suite() SuiteID
}

// PrivateKey is a suite-tagged private key.
type PrivateKey interface {
	// Suite identifies the suite the key belongs to.
	Suite() SuiteID
	// Public returns the corresponding public key. The result is
	// stable: every call returns the same instance.
	Public() PublicKey
}

// Suite implements one crypto suite's asymmetric operations. All
// methods charge the supplied CPUMeter (which may be nil) under the
// suite's own accounting fields.
type Suite interface {
	ID() SuiteID
	Name() string
	// Generate creates a fresh key pair. bits sizes RSA moduli and is
	// ignored by fixed-size suites.
	Generate(bits int) (PrivateKey, error)
	// Seal hybrid-encrypts plaintext to pub (one onion layer).
	Seal(m *CPUMeter, pub PublicKey, plaintext []byte) ([]byte, error)
	// Open decrypts a Seal ciphertext. Any failure is reported as
	// ErrDecrypt so a receiver is not a format oracle.
	Open(m *CPUMeter, priv PrivateKey, ct []byte) ([]byte, error)
	// Sign produces a signature over msg.
	Sign(m *CPUMeter, priv PrivateKey, msg []byte) ([]byte, error)
	// Verify checks a Sign signature (ErrBadSignature on failure).
	Verify(m *CPUMeter, pub PublicKey, msg, sig []byte) error
	// MarshalPublicKey serializes pub to its suite-tagged wire blob.
	// The result is shared and must be treated as read-only.
	MarshalPublicKey(pub PublicKey) []byte
	// UnmarshalPublicKey parses a blob this suite produced.
	UnmarshalPublicKey(blob []byte) (PublicKey, error)
}

var suiteRegistry = map[SuiteID]Suite{
	SuiteRSA2048: rsaSuiteInst,
	SuiteECC:     eccSuiteInst,
}

// GetSuite returns the Suite registered under id, or nil.
func GetSuite(id SuiteID) Suite { return suiteRegistry[id] }

// Suites lists the registered suite identifiers in a fixed order.
func Suites() []SuiteID { return []SuiteID{SuiteRSA2048, SuiteECC} }

func suiteOfKey(suite SuiteID) (Suite, error) {
	s := suiteRegistry[suite]
	if s == nil {
		return nil, fmt.Errorf("crypt: no suite registered for %v", suite)
	}
	return s, nil
}

// GenerateKey creates a fresh key pair for the suite. bits sizes RSA
// moduli (DefaultKeyBits-style defaults are the caller's concern) and
// is ignored by fixed-size suites.
func GenerateKey(suite SuiteID, bits int) (PrivateKey, error) {
	s, err := suiteOfKey(suite)
	if err != nil {
		return nil, err
	}
	return s.Generate(bits)
}

// Seal hybrid-encrypts plaintext to pub under the key's own suite.
// This is the per-layer encryption of the onion path.
func Seal(m *CPUMeter, pub PublicKey, plaintext []byte) ([]byte, error) {
	if pub == nil {
		return nil, fmt.Errorf("crypt: sealing to nil public key")
	}
	s, err := suiteOfKey(pub.Suite())
	if err != nil {
		return nil, err
	}
	return s.Seal(m, pub, plaintext)
}

// sealLayer seals one onion layer; see onionSealerSuite.
type sealLayer func(pub PublicKey, plaintext []byte) ([]byte, error)

// onionSealerSuite is an optional Suite extension: a suite that can
// amortize asymmetric work across the layers of one onion implements
// it. beginOnion returns a layer sealer holding per-onion shared state
// (the ecc suite's single ephemeral key); suites without the extension
// fall back to an independent Seal per layer.
type onionSealerSuite interface {
	beginOnion(m *CPUMeter) (sealLayer, error)
}

// newLayerSealer returns the seal function the onion builders use: for
// suites implementing onionSealerSuite it lazily opens one shared-state
// sealer per suite (so mixed-suite paths compose), everything else
// routes through plain Seal.
func newLayerSealer(m *CPUMeter) sealLayer {
	var shared map[SuiteID]sealLayer
	return func(pub PublicKey, plaintext []byte) ([]byte, error) {
		if pub == nil {
			return nil, fmt.Errorf("crypt: sealing to nil public key")
		}
		os, ok := suiteRegistry[pub.Suite()].(onionSealerSuite)
		if !ok {
			return Seal(m, pub, plaintext)
		}
		if f := shared[pub.Suite()]; f != nil {
			return f(pub, plaintext)
		}
		f, err := os.beginOnion(m)
		if err != nil {
			return nil, err
		}
		if shared == nil {
			shared = make(map[SuiteID]sealLayer, 1)
		}
		shared[pub.Suite()] = f
		return f(pub, plaintext)
	}
}

// Open decrypts a Seal ciphertext with the private key. Failures are
// uniform: whatever went wrong (wrong key, wrong suite, truncated or
// tampered ciphertext), the caller sees ErrDecrypt.
func Open(m *CPUMeter, priv PrivateKey, ct []byte) ([]byte, error) {
	if priv == nil {
		return nil, ErrDecrypt
	}
	s, err := suiteOfKey(priv.Suite())
	if err != nil {
		return nil, ErrDecrypt
	}
	return s.Open(m, priv, ct)
}

// Sign produces a signature over msg under the key's own suite.
func Sign(m *CPUMeter, priv PrivateKey, msg []byte) ([]byte, error) {
	if priv == nil {
		return nil, fmt.Errorf("crypt: signing with nil private key")
	}
	s, err := suiteOfKey(priv.Suite())
	if err != nil {
		return nil, err
	}
	return s.Sign(m, priv, msg)
}

// Verify checks a Sign signature. Cross-suite or malformed signatures
// fail with the same ErrBadSignature as a forged one.
func Verify(m *CPUMeter, pub PublicKey, msg, sig []byte) error {
	if pub == nil {
		return ErrBadSignature
	}
	s, err := suiteOfKey(pub.Suite())
	if err != nil {
		return ErrBadSignature
	}
	return s.Verify(m, pub, msg, sig)
}

// MarshalPublicKey serializes a public key to its suite-tagged wire
// blob. Results are memoized per key instance; the returned slice is
// shared and must be treated as read-only.
func MarshalPublicKey(pub PublicKey) []byte {
	derCache.Lock()
	der, ok := derCache.m[pub]
	derCache.Unlock()
	if ok {
		return der
	}
	s := suiteRegistry[pub.Suite()]
	if s == nil {
		panic(fmt.Sprintf("crypt: marshaling key of unregistered suite %v", pub.Suite()))
	}
	der = s.MarshalPublicKey(pub)
	derCache.Lock()
	if len(derCache.m) >= keyCacheMax {
		derCache.m = make(map[PublicKey][]byte, 64)
	}
	derCache.m[pub] = der
	derCache.Unlock()
	return der
}

// UnmarshalPublicKey parses a suite-tagged public key blob,
// dispatching on the leading byte (0x30 = PKIX DER = rsa2048,
// 0xEC = ecc). Identical blobs return one shared, interned key
// instance; callers must not modify it.
func UnmarshalPublicKey(blob []byte) (PublicKey, error) {
	if len(blob) == 0 {
		return nil, fmt.Errorf("crypt: empty public key blob")
	}
	parseCache.Lock()
	pub, ok := parseCache.m[string(blob)]
	parseCache.Unlock()
	if ok {
		return pub, nil
	}
	var s Suite
	switch blob[0] {
	case derSequenceTag:
		s = rsaSuiteInst
	case eccKeyTag:
		s = eccSuiteInst
	default:
		return nil, fmt.Errorf("crypt: unknown public key format (tag 0x%02x)", blob[0])
	}
	pub, err := s.UnmarshalPublicKey(blob)
	if err != nil {
		return nil, err
	}
	internPublicKey(blob, pub)
	return pub, nil
}

// internPublicKey makes pub the instance UnmarshalPublicKey returns
// for blob.
func internPublicKey(blob []byte, pub PublicKey) {
	parseCache.Lock()
	if len(parseCache.m) >= keyCacheMax {
		parseCache.m = make(map[string]PublicKey, 64)
	}
	parseCache.m[string(blob)] = pub
	parseCache.Unlock()
}

// KeyFingerprint returns a short stable digest of a public key, used
// as a map key and in logs: the first 8 bytes of SHA-256 over the
// marshaled key. Fingerprints are memoized per key instance.
func KeyFingerprint(pub PublicKey) [8]byte {
	fpCache.Lock()
	fp, ok := fpCache.m[pub]
	fpCache.Unlock()
	if ok {
		return fp
	}
	fp = fingerprintBlob(MarshalPublicKey(pub))
	fpCache.Lock()
	if len(fpCache.m) >= keyCacheMax {
		fpCache.m = make(map[PublicKey][8]byte, 64)
	}
	fpCache.m[pub] = fp
	fpCache.Unlock()
	return fp
}
