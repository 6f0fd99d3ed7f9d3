package keyss

import (
	"testing"

	"whisper/internal/crypt"
	"whisper/internal/identity"
	"whisper/internal/wire"
)

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	if s.Len() != 0 || s.Has(1) || s.Get(1) != nil {
		t.Fatal("empty store misbehaves")
	}
	keys := identity.TestKeys(2)
	s.Put(1, keys[0].Public())
	s.Put(2, keys[1].Public())
	if s.Len() != 2 || !s.Has(1) {
		t.Fatal("Put failed")
	}
	if s.Get(1) != keys[0].Public() {
		t.Fatal("Get returned wrong key")
	}
	// Overwrite keeps the newest key (re-keyed identity).
	s.Put(1, keys[1].Public())
	if s.Get(1) != keys[1].Public() || s.Len() != 2 {
		t.Fatal("overwrite failed")
	}
	// Nil keys are ignored.
	s.Put(9, nil)
	if s.Has(9) {
		t.Fatal("nil key stored")
	}
}

func TestKeyBlobRoundTrip(t *testing.T) {
	key := identity.TestKeys(1)[0]
	w := wire.NewWriter(0)
	EncodeKey(w, key.Public(), 512)
	if w.Len() != 2+512 {
		t.Fatalf("blob size = %d, want deterministic 514", w.Len())
	}
	r := wire.NewReader(w.Bytes())
	got := DecodeKey(r, 512)
	if got == nil || crypt.KeyFingerprint(got) != crypt.KeyFingerprint(key.Public()) {
		t.Fatal("key did not round trip")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestNilKeyBlob(t *testing.T) {
	w := wire.NewWriter(0)
	EncodeKey(w, nil, 256)
	if w.Len() != 2+256 {
		t.Fatalf("nil blob size = %d (sizes must stay deterministic)", w.Len())
	}
	r := wire.NewReader(w.Bytes())
	if DecodeKey(r, 256) != nil {
		t.Fatal("nil key decoded as non-nil")
	}
}

func TestGarbageKeyBlobIsAbsent(t *testing.T) {
	w := wire.NewWriter(0)
	w.Padded([]byte("not a DER key"), 256)
	r := wire.NewReader(w.Bytes())
	if DecodeKey(r, 256) != nil {
		t.Fatal("garbage DER produced a key")
	}
	if r.Err() != nil {
		t.Fatal("garbage key must be treated as absent, not a wire error")
	}
}

func TestECCKeyBlobRoundTrip(t *testing.T) {
	key := identity.TestSuiteKeys(crypt.SuiteECC, 1)[0]
	w := wire.NewWriter(0)
	EncodeKey(w, key.Public(), 128)
	if w.Len() != 2+128 {
		t.Fatalf("blob size = %d, want deterministic 130", w.Len())
	}
	r := wire.NewReader(w.Bytes())
	got := DecodeKey(r, 128)
	if got == nil || got.Suite() != crypt.SuiteECC {
		t.Fatalf("ecc key did not round trip: %v", got)
	}
	if crypt.KeyFingerprint(got) != crypt.KeyFingerprint(key.Public()) {
		t.Fatal("ecc fingerprint mismatch after round trip")
	}
}
