package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter(64)
	w.U8(7)
	w.Bool(true)
	w.Bool(false)
	w.U16(65535)
	w.U32(1 << 30)
	w.U64(1 << 60)
	w.Bytes16([]byte("hello"))
	w.Bytes32(bytes.Repeat([]byte{0xAB}, 70000))
	w.String("wörld")
	w.Raw([]byte{1, 2, 3})

	r := NewReader(w.Bytes())
	if r.U8() != 7 || !r.Bool() || r.Bool() {
		t.Fatal("u8/bool mismatch")
	}
	if r.U16() != 65535 || r.U32() != 1<<30 || r.U64() != 1<<60 {
		t.Fatal("int mismatch")
	}
	if string(r.Bytes16()) != "hello" {
		t.Fatal("bytes16 mismatch")
	}
	if len(r.Bytes32()) != 70000 {
		t.Fatal("bytes32 mismatch")
	}
	if r.String() != "wörld" {
		t.Fatal("string mismatch")
	}
	if !bytes.Equal(r.Raw(3), []byte{1, 2, 3}) {
		t.Fatal("raw mismatch")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTruncated(t *testing.T) {
	w := NewWriter(8)
	w.U64(42)
	r := NewReader(w.Bytes()[:5])
	_ = r.U64()
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", r.Err())
	}
	// Sticky: everything after returns zero values.
	if r.U32() != 0 || r.Bytes16() != nil || r.String() != "" {
		t.Fatal("reader not sticky after error")
	}
}

func TestHostileLengthPrefix(t *testing.T) {
	// A u32 length prefix far beyond the buffer must not allocate or
	// panic; it must error.
	buf := []byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3}
	r := NewReader(buf)
	if r.Bytes32() != nil {
		t.Fatal("hostile prefix yielded data")
	}
	if !errors.Is(r.Err(), ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", r.Err())
	}
	r2 := NewReader([]byte{0xFF, 0xFF, 1})
	if r2.Bytes16() != nil || !errors.Is(r2.Err(), ErrTooLarge) {
		t.Fatalf("bytes16 hostile prefix: %v", r2.Err())
	}
}

func TestPadded(t *testing.T) {
	w := NewWriter(0)
	w.Padded([]byte("key-material"), 128)
	if w.Len() != 2+128 {
		t.Fatalf("padded len = %d, want 130", w.Len())
	}
	r := NewReader(w.Bytes())
	got := r.Padded(128)
	if string(got) != "key-material" {
		t.Fatalf("padded round trip = %q", got)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Exact-size payload.
	full := bytes.Repeat([]byte{9}, 16)
	w2 := NewWriter(0)
	w2.Padded(full, 16)
	r2 := NewReader(w2.Bytes())
	if !bytes.Equal(r2.Padded(16), full) {
		t.Fatal("exact-size padded mismatch")
	}
}

func TestPaddedOversizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversize Padded did not panic")
		}
	}()
	w := NewWriter(0)
	w.Padded(make([]byte, 10), 5)
}

func TestPaddedCorruptLength(t *testing.T) {
	// Declared length exceeds blob size.
	buf := []byte{0x00, 0xFF}
	buf = append(buf, make([]byte, 16)...)
	r := NewReader(buf)
	if r.Padded(16) != nil || !errors.Is(r.Err(), ErrTooLarge) {
		t.Fatalf("corrupt padded length: %v", r.Err())
	}
}

func TestCloseDetectsTrailing(t *testing.T) {
	r := NewReader([]byte{1, 2})
	_ = r.U8()
	if err := r.Close(); err == nil {
		t.Fatal("trailing byte not detected")
	}
}

func TestBytes16TooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for >64KiB Bytes16")
		}
	}()
	w := NewWriter(0)
	w.Bytes16(make([]byte, 70000))
}

// Property: any sequence of (tag, value) fields round-trips exactly.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(u8 uint8, u16v uint16, u32v uint32, u64v uint64, blob []byte, s string) bool {
		if len(blob) > 1000 || len(s) > 1000 {
			return true
		}
		w := NewWriter(0)
		w.U8(u8)
		w.U16(u16v)
		w.U32(u32v)
		w.U64(u64v)
		w.Bytes32(blob)
		w.String(s)
		r := NewReader(w.Bytes())
		ok := r.U8() == u8 && r.U16() == u16v && r.U32() == u32v && r.U64() == u64v
		got := r.Bytes32()
		ok = ok && bytes.Equal(got, blob) && r.String() == s
		return ok && r.Close() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

// Property: the reader never panics on arbitrary input, whatever the
// decode schedule.
func TestPropertyNoPanicOnGarbage(t *testing.T) {
	f := func(buf []byte, schedule []uint8) bool {
		r := NewReader(buf)
		for _, op := range schedule {
			switch op % 8 {
			case 0:
				r.U8()
			case 1:
				r.U16()
			case 2:
				r.U32()
			case 3:
				r.U64()
			case 4:
				r.Bytes16()
			case 5:
				r.Bytes32()
			case 6:
				_ = r.String()
			case 7:
				r.Padded(32)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriterTypicalEntry(b *testing.B) {
	blob := make([]byte, 140)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := NewWriter(256)
		w.U64(12345)
		w.U32(99)
		w.U16(42)
		w.U8(3)
		w.Padded(blob, 160)
		_ = w.Bytes()
	}
}

// TestHeadroomFraming: a message written behind headroom is framed by
// prepending into it — the bytes in front of the message, never a copy
// of the message — and costs the one allocation of its buffer.
func TestHeadroomFraming(t *testing.T) {
	w := NewWriterHeadroom(14, 5)
	w.Raw([]byte("body!"))
	if w.Len() != 5 || string(w.Bytes()) != "body!" {
		t.Fatalf("message = %q (len %d)", w.Bytes(), w.Len())
	}
	body := &w.Bytes()[0]
	w.PrependU32(0xAABBCCDD)
	w.PrependU64(7)
	w.PrependU8(9)
	if w.Len() != 18 {
		t.Fatalf("Len after prepends = %d, want 18", w.Len())
	}
	r := NewReader(w.Bytes())
	if r.U8() != 9 || r.U64() != 7 || r.U32() != 0xAABBCCDD || string(r.Rest()) != "body!" || r.Err() != nil {
		t.Fatalf("framed message reads wrong: % x", w.Bytes())
	}
	if &w.Bytes()[13] != body {
		t.Fatal("prepending moved the message")
	}
	frame := w.BytesWithHeadroom(1)
	if len(frame) != 19 || &frame[1] != &w.Bytes()[0] {
		t.Fatal("BytesWithHeadroom does not precede the message by exactly the headroom asked for")
	}
	if cap(frame) != 19 {
		t.Fatalf("cap = %d, want the exact 19 requested", cap(frame))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		w := NewWriterHeadroom(14, 5)
		w.Raw([]byte("body!"))
		w.PrependU8(9)
		_ = w.BytesWithHeadroom(1)
	}); allocs != 1 {
		t.Errorf("framing a message allocates %.0f times, want 1", allocs)
	}
	for name, f := range map[string]func(){
		"prepend":   func() { w.PrependU32(1) }, // 1 byte of headroom left
		"headroom":  func() { w.BytesWithHeadroom(2) },
		"no-room":   func() { NewWriter(8).PrependU8(1) },
		"zero-room": func() { new(Writer).BytesWithHeadroom(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: exceeding the headroom did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestAroundReframesInPlace: a forwarding hop wraps the buffer it
// received, treats the consumed front as headroom, and writes the next
// header there.
func TestAroundReframesInPlace(t *testing.T) {
	buf := []byte("OLDHDR-nonce-payload")
	w := Around(buf, 13) // message = "payload"
	if string(w.Bytes()) != "payload" {
		t.Fatalf("message = %q", w.Bytes())
	}
	w.PrependU8('H')
	if got := w.BytesWithHeadroom(1); &got[len(got)-1] != &buf[len(buf)-1] || string(got[1:]) != "Hpayload" {
		t.Fatalf("reframed = %q, or not in the original buffer", got)
	}
}

// TestExtendAndResetKeepHeadroom: Extend hands out zeroed room at the
// end of the message, and Reset restores the headroom the writer
// started with.
func TestExtendAndResetKeepHeadroom(t *testing.T) {
	w := NewWriterHeadroom(2, 8)
	copy(w.Extend(3), "abc")
	w.U8('d')
	tail := w.Extend(2)
	if string(w.Bytes()) != "abcd\x00\x00" || len(tail) != 2 {
		t.Fatalf("message = %q", w.Bytes())
	}
	w.PrependU8(1)
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("Len after Reset = %d", w.Len())
	}
	w.U8('x')
	w.PrependU8(2)
	w.PrependU8(3)
	if string(w.Bytes()) != "\x03\x02x" {
		t.Fatalf("after Reset: %q", w.Bytes())
	}
	if got := w.Extend(4); !bytes.Equal(got, make([]byte, 4)) {
		t.Fatalf("Extend over a reused buffer handed out %q, want zeroes", got)
	}
}
