package crypt

import (
	"bytes"
	"errors"
	"testing"
)

// sealCellNested is how cells were sealed before the in-place path: one
// SealSym per hop, each wrapping the previous layer in a fresh buffer.
// It stays here as the reference the in-place sealer and opener are
// checked against — relays of either kind must interoperate.
func sealCellNested(t testing.TB, keys [][]byte, payload []byte) []byte {
	t.Helper()
	cell := payload
	for i := len(keys) - 1; i >= 0; i-- {
		var err error
		if cell, err = SealSym(nil, keys[i], cell); err != nil {
			t.Fatal(err)
		}
	}
	return cell
}

func testCellKeys(t testing.TB, hops int) [][]byte {
	t.Helper()
	secret, err := NewCircuitSecret()
	if err != nil {
		t.Fatal(err)
	}
	keys, err := DeriveCircuitKeys(secret, hops)
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

// TestInPlaceCellInteroperates: cells sealed the old way open with the
// in-place opener, cells sealed in place open with the allocating
// opener, hop by hop down to the same payload — and a cell sealed in
// place is byte for byte the cell nested sealing produces from the
// same nonces.
func TestInPlaceCellInteroperates(t *testing.T) {
	for _, hops := range []int{1, 3, 5} {
		for _, size := range []int{0, 1, 64, 1024} {
			keys := testCellKeys(t, hops)
			payload := bytes.Repeat([]byte{0xA5}, size)

			cell := sealCellNested(t, keys, payload)
			for i, k := range keys {
				pt, err := OpenSymInPlace(nil, k, cell)
				if err != nil {
					t.Fatalf("hops=%d size=%d: in-place open of nested layer %d: %v", hops, size, i, err)
				}
				cell = pt
			}
			if !bytes.Equal(cell, payload) {
				t.Fatalf("hops=%d size=%d: nested seal, in-place open: payload differs", hops, size)
			}

			sealed, err := SealCell(nil, keys, payload)
			if err != nil {
				t.Fatal(err)
			}
			if want := hops*(NonceSize+TagSize) + size; len(sealed) != want {
				t.Fatalf("hops=%d size=%d: sealed cell is %d bytes, want %d", hops, size, len(sealed), want)
			}
			cell = sealed
			nonces := make([][]byte, hops) // each layer's nonce heads the layer outside it opens to
			for i, k := range keys {
				nonces[i] = cell[:NonceSize]
				pt, err := OpenSym(nil, k, cell)
				if err != nil {
					t.Fatalf("hops=%d size=%d: allocating open of in-place layer %d: %v", hops, size, i, err)
				}
				cell = pt
			}
			if !bytes.Equal(cell, payload) {
				t.Fatalf("hops=%d size=%d: in-place seal, allocating open: payload differs", hops, size)
			}
			// Rebuild it layer by layer, allocating, from the nonces it drew.
			rebuilt := payload
			for i := hops - 1; i >= 0; i-- {
				gcm, err := cachedGCM(keys[i])
				if err != nil {
					t.Fatal(err)
				}
				rebuilt = gcm.Seal(append([]byte(nil), nonces[i]...), nonces[i], rebuilt, nil)
			}
			if !bytes.Equal(rebuilt, sealed) {
				t.Fatalf("hops=%d size=%d: in-place sealing lays the cell out differently from nested sealing", hops, size)
			}
		}
	}
}

// TestExportedCellFunctionsDoNotMutate: SealCell and OpenSym are the
// allocate-then-work-in-place wrappers; callers hand them buffers they
// keep using (the benchmark seals one message and opens one cell over
// and over).
func TestExportedCellFunctionsDoNotMutate(t *testing.T) {
	keys := testCellKeys(t, 3)
	payload := []byte("the payload stays as it was")
	before := append([]byte(nil), payload...)
	cell, err := SealCell(nil, keys, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, before) {
		t.Fatal("SealCell overwrote its payload")
	}
	sealed := append([]byte(nil), cell...)
	for i := 0; i < 3; i++ {
		if _, err := OpenSym(nil, keys[0], cell); err != nil {
			t.Fatalf("open %d of the same cell: %v", i, err)
		}
		if !bytes.Equal(cell, sealed) {
			t.Fatal("OpenSym overwrote its ciphertext")
		}
	}
}

// TestInPlaceOpenRejectsTampering: flipping any byte of a layer — nonce,
// ciphertext or tag — and truncating it anywhere fails uniformly with
// ErrDecrypt, for both openers.
func TestInPlaceOpenRejectsTampering(t *testing.T) {
	keys := testCellKeys(t, 3)
	sealed, err := SealCell(nil, keys, []byte("sixteen byte msg"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range sealed {
		bad := append([]byte(nil), sealed...)
		bad[i] ^= 0x80
		if _, err := OpenSym(nil, keys[0], bad); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("byte %d flipped: OpenSym err = %v, want ErrDecrypt", i, err)
		}
		if _, err := OpenSymInPlace(nil, keys[0], bad); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("byte %d flipped: OpenSymInPlace err = %v, want ErrDecrypt", i, err)
		}
	}
	for n := 0; n < len(sealed); n++ {
		if _, err := OpenSymInPlace(nil, keys[0], append([]byte(nil), sealed[:n]...)); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("truncated to %d bytes: err = %v, want ErrDecrypt", n, err)
		}
	}
	if _, err := OpenSymInPlace(nil, keys[1], append([]byte(nil), sealed...)); !errors.Is(err, ErrDecrypt) {
		t.Fatal("layer opened under another hop's key")
	}
	if err := SealCellInPlace(nil, keys, make([]byte, 3*(NonceSize+TagSize)-1)); err == nil {
		t.Fatal("buffer too small for its nonces and tags accepted")
	}
	if err := SealCellInPlace(nil, nil, make([]byte, 64)); err == nil {
		t.Fatal("empty circuit accepted")
	}
}

// TestInPlaceCellAllocs pins what the in-place pair is for: with warm
// AEADs, sealing a cell into its buffer and opening a layer where it
// lies allocate nothing.
func TestInPlaceCellAllocs(t *testing.T) {
	keys := testCellKeys(t, 3)
	const size = 1024
	buf := make([]byte, 3*(NonceSize+TagSize)+size)
	if err := SealCellInPlace(nil, keys, buf); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := SealCellInPlace(nil, keys, buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("SealCellInPlace allocates %.1f times per cell, want 0", allocs)
	}
	scratch := make([]byte, len(buf))
	if allocs := testing.AllocsPerRun(100, func() {
		copy(scratch, buf)
		if _, err := OpenSymInPlace(nil, keys[0], scratch); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("OpenSymInPlace allocates %.1f times per layer, want 0", allocs)
	}
}

// FuzzOpenSymInPlace: arbitrary bytes — truncated, extended or garbled
// cells — never panic the in-place opener, and it agrees with the
// allocating opener on every input: same verdict, same plaintext.
func FuzzOpenSymInPlace(f *testing.F) {
	key := bytes.Repeat([]byte{7}, SymKeySize)
	good, err := SealSym(nil, key, []byte("a cell layer"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:NonceSize])
	f.Add(good[:len(good)-1])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, ct []byte) {
		want, wantErr := OpenSym(nil, key, ct)
		got, gotErr := OpenSymInPlace(nil, key, append([]byte(nil), ct...))
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("openers disagree: allocating %v, in place %v", wantErr, gotErr)
		}
		if gotErr != nil {
			if !errors.Is(gotErr, ErrDecrypt) {
				t.Fatalf("err = %v, want ErrDecrypt", gotErr)
			}
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatal("openers disagree on the plaintext")
		}
	})
}
