package crypt

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"whisper/internal/wire"
)

// resetSpec drops every held job and waits for the drainers to exit,
// so a test starts from an empty table that only it fills.
func resetSpec() {
	spec.Lock()
	spec.ring = [specMax]*unwrapJob{}
	clear(spec.byBlock)
	for spec.drainers > 0 {
		spec.Unlock()
		time.Sleep(time.Millisecond)
		spec.Lock()
	}
	spec.Unlock()
}

// pushJob holds a queued job for ct's RSA block without starting a
// drainer.
func pushJob(t *testing.T, priv *rsa.PrivateKey, ct []byte) {
	t.Helper()
	spec.Lock()
	defer spec.Unlock()
	if !push(priv, wire.NewReader(ct).Bytes16()) {
		t.Fatal("job not held")
	}
}

// startJob moves the newest queued job to running, as a drainer would.
func startJob(t *testing.T) *unwrapJob {
	t.Helper()
	spec.Lock()
	defer spec.Unlock()
	j := startNewest()
	if j == nil {
		t.Fatal("nothing queued")
	}
	return j
}

func counts() specCounts {
	spec.Lock()
	defer spec.Unlock()
	return spec.counts
}

// TestSpeculativeOpenMatchesPlainOpen opens the same ciphertexts with
// and without a speculative job in every claim state: the plaintext,
// the error and the meter's RSA count must be equal. The plain open
// uses a copy of the private key, which no job can match.
func TestSpeculativeOpenMatchesPlainOpen(t *testing.T) {
	ks := keys(2)
	owner, other := ks[0].(*RSAPrivateKey), ks[1].(*RSAPrivateKey)
	// Seal to a holder-less copy of the owner's public key: only the jobs each
	// case sets up by hand exist.
	pub := &RSAPublicKey{K: &owner.K.PublicKey}
	plainKey := func(k *RSAPrivateKey) *RSAPrivateKey { c := *k.K; return NewRSAPrivateKey(&c) }

	cases := []struct {
		name   string
		setup  func(t *testing.T, ct []byte) // hold jobs for the sealed ct
		mutate func(ct []byte) []byte        // then change what the opener receives
		opener *RSAPrivateKey
		want   func(before, after specCounts) bool
	}{
		{name: "claimed after it finished",
			setup: func(t *testing.T, ct []byte) {
				pushJob(t, owner.K, ct)
				runJob(startJob(t), sha256.New())
			},
			want: func(b, a specCounts) bool { return a.ClaimedDone == b.ClaimedDone+1 }},
		{name: "claimed while running",
			setup: func(t *testing.T, ct []byte) {
				pushJob(t, owner.K, ct)
				j := startJob(t)
				base := counts().ClaimedRunning
				go func() {
					// Finish only once the opener is waiting.
					for counts().ClaimedRunning == base {
						time.Sleep(100 * time.Microsecond)
					}
					runJob(j, sha256.New())
				}()
			},
			want: func(b, a specCounts) bool { return a.ClaimedRunning == b.ClaimedRunning+1 }},
		{name: "not started, taken inline",
			setup: func(t *testing.T, ct []byte) { pushJob(t, owner.K, ct) },
			want:  func(b, a specCounts) bool { return a.Inline == b.Inline+1 }},
		{name: "evicted",
			setup: func(t *testing.T, ct []byte) {
				pushJob(t, owner.K, ct)
				for range specMax {
					filler := make([]byte, 130)
					rand.Read(filler)
					filler[0], filler[1] = 0, 128
					pushJob(t, owner.K, filler)
				}
			},
			want: func(b, a specCounts) bool { return a.Evicted == b.Evicted+1 && a.Inline == b.Inline }},
		{name: "same block, different private key",
			setup: func(t *testing.T, ct []byte) {
				pushJob(t, owner.K, ct)
				runJob(startJob(t), sha256.New())
			},
			opener: other,
			want:   func(b, a specCounts) bool { return a.ClaimedDone == b.ClaimedDone }},
		{name: "tampered body",
			setup: func(t *testing.T, ct []byte) {
				pushJob(t, owner.K, ct)
				runJob(startJob(t), sha256.New())
			},
			mutate: func(ct []byte) []byte { ct[len(ct)-1] ^= 1; return ct },
			want:   func(b, a specCounts) bool { return a.ClaimedDone == b.ClaimedDone+1 }},
		{name: "truncated inside the body",
			setup: func(t *testing.T, ct []byte) {
				pushJob(t, owner.K, ct)
				runJob(startJob(t), sha256.New())
			},
			mutate: func(ct []byte) []byte { return ct[:len(ct)-5] },
			want:   func(b, a specCounts) bool { return a.ClaimedDone == b.ClaimedDone+1 }},
		{name: "truncated inside the RSA block",
			setup: func(t *testing.T, ct []byte) {
				pushJob(t, owner.K, ct)
				runJob(startJob(t), sha256.New())
			},
			mutate: func(ct []byte) []byte { return ct[:40] },
			want:   func(b, a specCounts) bool { return a.ClaimedDone == b.ClaimedDone }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resetSpec()
			defer resetSpec()
			msg := []byte("layer plaintext " + tc.name)
			ct, err := rsaSeal(nil, pub, msg)
			if err != nil {
				t.Fatal(err)
			}
			opener := owner
			if tc.opener != nil {
				opener = tc.opener
			}
			before := counts()
			tc.setup(t, ct)
			if tc.mutate != nil {
				ct = tc.mutate(bytes.Clone(ct))
			}
			var mPlain, mSpec CPUMeter
			wantPT, wantErr := Open(&mPlain, plainKey(opener), ct)
			gotPT, gotErr := Open(&mSpec, opener, ct)
			after := counts()

			if !bytes.Equal(gotPT, wantPT) || !errors.Is(gotErr, wantErr) {
				t.Fatalf("speculative open = (%q, %v), plain open = (%q, %v)", gotPT, gotErr, wantPT, wantErr)
			}
			if tc.mutate == nil && tc.opener == nil && !bytes.Equal(gotPT, msg) {
				t.Fatalf("opened %q, sealed %q", gotPT, msg)
			}
			if tc.mutate != nil || tc.opener != nil {
				if !errors.Is(gotErr, ErrDecrypt) {
					t.Fatalf("err = %v, want ErrDecrypt", gotErr)
				}
			}
			if mSpec.RSADecs != mPlain.RSADecs {
				t.Fatalf("RSADecs %d, plain open %d", mSpec.RSADecs, mPlain.RSADecs)
			}
			if mSpec.RSADecs > 0 && mSpec.RSA <= 0 {
				t.Fatal("claimed unwrap charged no RSA time")
			}
			if !tc.want(before, after) {
				t.Fatalf("counts %+v → %+v", before, after)
			}
		})
	}
}

// TestSealSpeculatesOnlyForLocalHolders checks which seals queue an
// unwrap: keys made here do (and every parse of their DER is the same
// wrapper), keys parsed from outside bytes never do, and nothing is
// queued at GOMAXPROCS 1.
func TestSealSpeculatesOnlyForLocalHolders(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	resetSpec()
	defer resetSpec()
	k := keys(1)[0]
	parsed, err := UnmarshalPublicKey(MarshalPublicKey(k.Public()))
	if err != nil {
		t.Fatal(err)
	}
	if parsed != k.Public() {
		t.Fatal("parsing a generated key's DER gave a second wrapper")
	}

	q := counts().Queued
	if _, err := Seal(nil, parsed, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := counts().Queued; got != q+1 {
		t.Fatalf("seal to a local holder queued %d jobs, want 1", got-q)
	}

	// A key from outside: same modulus, bytes parsed by the suite
	// itself, so no holder.
	outside, err := rsaSuiteInst.UnmarshalPublicKey(MarshalPublicKey(k.Public()))
	if err != nil {
		t.Fatal(err)
	}
	q = counts().Queued
	ct, err := Seal(nil, outside, []byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	if got := counts().Queued; got != q {
		t.Fatal("seal to a holder-less key was speculated")
	}
	if pt, err := Open(nil, k, ct); err != nil || string(pt) != "y" {
		t.Fatalf("open = (%q, %v)", pt, err)
	}

	runtime.GOMAXPROCS(1)
	q = counts().Queued
	if _, err := Seal(nil, k.Public(), []byte("z")); err != nil {
		t.Fatal(err)
	}
	if got := counts().Queued; got != q {
		t.Fatal("seal at GOMAXPROCS 1 was speculated")
	}
}

// TestSpeculativeOnionPeel builds onions with drainers running
// (GOMAXPROCS 4) and peels them from several goroutines at once: every
// hop must recover exactly its layer and be charged one decryption,
// however the claims fall.
func TestSpeculativeOnionPeel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	resetSpec()
	defer resetSpec()
	ks := keys(3)
	hops := []Hop{
		{Pub: ks[0].Public(), Addr: []byte("A")},
		{Pub: ks[1].Public(), Addr: []byte("B")},
		{Pub: ks[2].Public(), Addr: []byte("D")},
	}
	var wg sync.WaitGroup
	for i := range 8 {
		o, err := BuildOnion(nil, hops, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for hop, k := range ks {
				var m CPUMeter
				next, inner, exit, err := Peel(&m, k, o)
				switch {
				case err != nil || m.RSADecs != 1:
					t.Errorf("onion %d hop %d: err %v, %d RSA decryptions", i, hop, err, m.RSADecs)
				case exit != (hop == 2):
					t.Errorf("onion %d hop %d: exit = %v", i, hop, exit)
				case exit && !bytes.Equal(inner, []byte{byte(i)}):
					t.Errorf("onion %d delivered %v", i, inner)
				case !exit && !bytes.Equal(next, hops[hop+1].Addr):
					t.Errorf("onion %d hop %d: next %q", i, hop, next)
				default:
					o = inner
					continue
				}
				return
			}
		}()
	}
	wg.Wait()
}
