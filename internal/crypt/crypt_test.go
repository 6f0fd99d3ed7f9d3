package crypt

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSymRoundTrip(t *testing.T) {
	key, err := NewSymKey()
	if err != nil {
		t.Fatal(err)
	}
	var m CPUMeter
	ct, err := SealSym(&m, key, []byte("attack at dawn"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(ct, []byte("attack")) {
		t.Fatal("plaintext visible in ciphertext")
	}
	pt, err := OpenSym(&m, key, ct)
	if err != nil {
		t.Fatal(err)
	}
	if string(pt) != "attack at dawn" {
		t.Fatalf("round trip = %q", pt)
	}
	if m.AESOps != 2 || m.AES <= 0 {
		t.Fatalf("AES metering: %+v", m)
	}
}

// TestSymOnceInteroperatesWithoutCaching checks that the one-shot
// variants read and write SealSym's format, fail like it on a tampered
// ciphertext, and leave the AEAD cache as they found it.
func TestSymOnceInteroperatesWithoutCaching(t *testing.T) {
	key, _ := NewSymKey()
	aeadCache.Lock()
	before := len(aeadCache.m)
	aeadCache.Unlock()
	var m CPUMeter
	ct, err := SealSymOnce(&m, key, []byte("attack at dawn"))
	if err != nil {
		t.Fatal(err)
	}
	if pt, err := OpenSymOnce(&m, key, ct); err != nil || string(pt) != "attack at dawn" {
		t.Fatalf("once → once = (%q, %v)", pt, err)
	}
	if m.AESOps != 2 || m.AES <= 0 {
		t.Fatalf("AES metering: %+v", m)
	}
	aeadCache.Lock()
	after := len(aeadCache.m)
	aeadCache.Unlock()
	if after > before {
		t.Fatalf("AEAD cache grew from %d to %d entries", before, after)
	}
	if pt, err := OpenSym(nil, key, ct); err != nil || string(pt) != "attack at dawn" {
		t.Fatalf("once → cached = (%q, %v)", pt, err)
	}
	ct, _ = SealSym(nil, key, []byte("retreat"))
	if pt, err := OpenSymOnce(nil, key, ct); err != nil || string(pt) != "retreat" {
		t.Fatalf("cached → once = (%q, %v)", pt, err)
	}
	ct[len(ct)-1] ^= 1
	if _, err := OpenSymOnce(nil, key, ct); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("tampered: err = %v, want ErrDecrypt", err)
	}
	if _, err := OpenSymOnce(nil, key, ct[:4]); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("truncated: err = %v, want ErrDecrypt", err)
	}
}

func TestSymWrongKeyFails(t *testing.T) {
	k1, _ := NewSymKey()
	k2, _ := NewSymKey()
	ct, _ := SealSym(nil, k1, []byte("secret"))
	if _, err := OpenSym(nil, k2, ct); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("wrong key: err = %v, want ErrDecrypt", err)
	}
}

func TestSymTamperDetected(t *testing.T) {
	k, _ := NewSymKey()
	ct, _ := SealSym(nil, k, []byte("secret"))
	ct[len(ct)-1] ^= 1
	if _, err := OpenSym(nil, k, ct); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("tampered: err = %v, want ErrDecrypt", err)
	}
	if _, err := OpenSym(nil, k, ct[:4]); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("truncated: err = %v, want ErrDecrypt", err)
	}
}

func TestHybridRoundTrip(t *testing.T) {
	k := keys(1)[0]
	var m CPUMeter
	msg := bytes.Repeat([]byte("confidential "), 100)
	ct, err := Seal(&m, k.Public(), msg)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := Open(&m, k, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, msg) {
		t.Fatal("hybrid round trip mismatch")
	}
	if m.RSAEncs != 1 || m.RSADecs != 1 || m.RSA <= 0 {
		t.Fatalf("RSA metering: %+v", m)
	}
}

func TestHybridWrongKeyFails(t *testing.T) {
	ks := keys(2)
	ct, _ := Seal(nil, ks[0].Public(), []byte("x"))
	if _, err := Open(nil, ks[1], ct); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("err = %v, want ErrDecrypt", err)
	}
}

func TestHybridGarbageFails(t *testing.T) {
	k := keys(1)[0]
	for _, ct := range [][]byte{nil, {1}, bytes.Repeat([]byte{7}, 300)} {
		if _, err := Open(nil, k, ct); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("garbage %d bytes: err = %v, want ErrDecrypt", len(ct), err)
		}
	}
}

func TestSignVerify(t *testing.T) {
	ks := keys(2)
	var m CPUMeter
	sig, err := Sign(&m, ks[0], []byte("passport for N42"))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(&m, ks[0].Public(), []byte("passport for N42"), sig); err != nil {
		t.Fatal(err)
	}
	if err := Verify(&m, ks[0].Public(), []byte("passport for N43"), sig); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("altered message: %v", err)
	}
	if err := Verify(&m, ks[1].Public(), []byte("passport for N42"), sig); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("wrong key: %v", err)
	}
	if m.Signs != 1 || m.Verifys != 3 {
		t.Fatalf("sign metering: %+v", m)
	}
}

func TestPublicKeyMarshal(t *testing.T) {
	k := keys(1)[0]
	der := MarshalPublicKey(k.Public())
	pub, err := UnmarshalPublicKey(der)
	if err != nil {
		t.Fatal(err)
	}
	rp, ok := pub.(*RSAPublicKey)
	if !ok {
		t.Fatalf("round trip yielded %T, want *RSAPublicKey", pub)
	}
	orig := k.(*RSAPrivateKey).K.PublicKey
	if rp.K.N.Cmp(orig.N) != 0 || rp.K.E != orig.E {
		t.Fatal("key round trip mismatch")
	}
	if _, err := UnmarshalPublicKey([]byte("junk")); err == nil {
		t.Fatal("junk DER accepted")
	}
	if KeyFingerprint(k.Public()) != KeyFingerprint(pub) {
		t.Fatal("fingerprint unstable across marshal")
	}
	if KeyFingerprint(k.Public()) == KeyFingerprint(keys(2)[1].Public()) {
		t.Fatal("distinct keys share a fingerprint")
	}
}

func TestOnionFourNodePath(t *testing.T) {
	// The paper's canonical path: S → A → B → D with mixes A, B.
	ks := keys(3) // A, B, D
	addrB := []byte("addr-of-B")
	addrD := []byte("addr-of-D")
	contentKey, _ := NewSymKey()

	var m CPUMeter
	onion, err := BuildOnion(&m, []Hop{
		{Pub: ks[0].Public(), Addr: []byte("addr-of-A")},
		{Pub: ks[1].Public(), Addr: addrB},
		{Pub: ks[2].Public(), Addr: addrD},
	}, contentKey)
	if err != nil {
		t.Fatal(err)
	}
	if m.RSAEncs != 3 {
		t.Fatalf("onion build used %d RSA encryptions, want 3", m.RSAEncs)
	}

	// A peels: learns B's address, nothing else.
	next, inner, exit, err := Peel(&m, ks[0], onion)
	if err != nil || exit {
		t.Fatalf("A peel: exit=%v err=%v", exit, err)
	}
	if !bytes.Equal(next, addrB) {
		t.Fatalf("A learned next=%q, want addr-of-B", next)
	}
	if bytes.Contains(inner, addrD) || bytes.Contains(inner, contentKey) {
		t.Fatal("A's view leaks inner-layer data")
	}

	// B peels: learns D's address.
	next, inner, exit, err = Peel(&m, ks[1], inner)
	if err != nil || exit {
		t.Fatalf("B peel: exit=%v err=%v", exit, err)
	}
	if !bytes.Equal(next, addrD) {
		t.Fatalf("B learned next=%q, want addr-of-D", next)
	}

	// D peels: exit layer with the content key.
	next, inner, exit, err = Peel(&m, ks[2], inner)
	if err != nil || !exit {
		t.Fatalf("D peel: exit=%v err=%v", exit, err)
	}
	if len(next) != 0 {
		t.Fatalf("destination saw non-⊥ next hop %q", next)
	}
	if !bytes.Equal(inner, contentKey) {
		t.Fatal("content key corrupted through the onion")
	}
}

func TestOnionWrongHopCannotPeel(t *testing.T) {
	ks := keys(3)
	onion, err := BuildOnion(nil, []Hop{
		{Pub: ks[0].Public()},
		{Pub: ks[1].Public(), Addr: []byte("b")},
	}, []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	// B (or anyone but A) cannot peel the outer layer.
	if _, _, _, err := Peel(nil, ks[1], onion); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("wrong hop peel: %v", err)
	}
	if _, _, _, err := Peel(nil, ks[2], onion); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("outsider peel: %v", err)
	}
}

func TestOnionEmptyPath(t *testing.T) {
	if _, err := BuildOnion(nil, nil, []byte("k")); err == nil {
		t.Fatal("empty path accepted")
	}
}

func TestOnionSingleHop(t *testing.T) {
	k := keys(1)[0]
	onion, err := BuildOnion(nil, []Hop{{Pub: k.Public()}}, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	next, inner, exit, err := Peel(nil, k, onion)
	if err != nil || !exit || len(next) != 0 || string(inner) != "payload" {
		t.Fatalf("single hop: next=%q inner=%q exit=%v err=%v", next, inner, exit, err)
	}
}

// Property: onions of any length 1..5 peel hop by hop in order, each
// hop seeing exactly its successor's address, and the final payload
// survives.
func TestPropertyOnionPeeling(t *testing.T) {
	ks := keys(5)
	f := func(nHops uint8, payload []byte) bool {
		n := int(nHops%5) + 1
		hops := make([]Hop, n)
		for i := range hops {
			hops[i] = Hop{Pub: ks[i].Public(), Addr: []byte{byte(i), 0xEE}}
		}
		onion, err := BuildOnion(nil, hops, payload)
		if err != nil {
			return false
		}
		blob := onion
		for i := 0; i < n; i++ {
			next, inner, exit, err := Peel(nil, ks[i], blob)
			if err != nil {
				return false
			}
			last := i == n-1
			if exit != last {
				return false
			}
			if !last && !bytes.Equal(next, hops[i+1].Addr) {
				return false
			}
			if last && !bytes.Equal(inner, payload) {
				return false
			}
			blob = inner
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

func TestCPUMeterAdd(t *testing.T) {
	a := CPUMeter{AES: 1, RSA: 2, ECC: 3, AESOps: 3, RSAEncs: 4, RSADecs: 5, Signs: 6, Verifys: 7,
		ECCEncs: 8, ECCDecs: 9, ECCSigns: 10, ECCVerifys: 11}
	var b CPUMeter
	b.Add(a)
	b.Add(a)
	if b.AES != 2 || b.RSA != 4 || b.ECC != 6 || b.AESOps != 6 || b.RSAEncs != 8 || b.RSADecs != 10 || b.Signs != 12 || b.Verifys != 14 {
		t.Fatalf("Add: %+v", b)
	}
	if b.ECCEncs != 16 || b.ECCDecs != 18 || b.ECCSigns != 20 || b.ECCVerifys != 22 {
		t.Fatalf("Add (ecc ops): %+v", b)
	}
	if b.Total() != 12 {
		t.Fatalf("Total = %v", b.Total())
	}
	if b.Asym() != 10 {
		t.Fatalf("Asym = %v", b.Asym())
	}
	b.Reset()
	if b != (CPUMeter{}) {
		t.Fatal("Reset incomplete")
	}
}

func BenchmarkSealSym1KB(b *testing.B) {
	key, _ := NewSymKey()
	msg := make([]byte, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SealSym(nil, key, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOnionBuild3Hops(b *testing.B) {
	ks := keys(3)
	hops := []Hop{
		{Pub: ks[0].Public(), Addr: []byte("a")},
		{Pub: ks[1].Public(), Addr: []byte("b")},
		{Pub: ks[2].Public(), Addr: []byte("d")},
	}
	k, _ := NewSymKey()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildOnion(nil, hops, k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOnionPeel(b *testing.B) {
	ks := keys(3)
	hops := []Hop{
		{Pub: ks[0].Public(), Addr: []byte("a")},
		{Pub: ks[1].Public(), Addr: []byte("b")},
		{Pub: ks[2].Public(), Addr: []byte("d")},
	}
	k, _ := NewSymKey()
	onion, _ := BuildOnion(nil, hops, k)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := Peel(nil, ks[0], onion); err != nil {
			b.Fatal(err)
		}
	}
}
