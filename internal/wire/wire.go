// Package wire implements a compact, deterministic binary encoding used
// by every WHISPER protocol message. Deterministic sizes matter because
// the evaluation reports bandwidth per cycle; an encoding with stable
// framing makes those figures reproducible across runs.
//
// Writers never fail. Readers carry a sticky error: after the first
// malformed field every subsequent accessor returns a zero value, and
// Err reports the problem once at the end — the standard pattern for
// parsing untrusted input without error-checking every field.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTruncated is returned by Reader.Err when the buffer ends before a
// requested field.
var ErrTruncated = errors.New("wire: truncated message")

// ErrTooLarge is returned when a length prefix exceeds the remaining
// buffer (corrupt or hostile input).
var ErrTooLarge = errors.New("wire: length prefix exceeds buffer")

// Writer accumulates an encoded message. The zero value is ready to use.
//
// A writer may carry headroom: unused bytes in front of the message
// that outer layers later fill with their own headers (Prepend*), so a
// message is framed by every layer it descends through without ever
// being copied into a fresh buffer. buf[head:] is the message,
// buf[head-k:head] the headroom still free.
type Writer struct {
	buf  []byte
	head int // index of the message's first byte
	room int // headroom the writer started with (what Reset restores)
}

// NewWriter returns a writer with capacity preallocated for sizeHint
// bytes.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// NewWriterHeadroom returns a writer with headroom free bytes in front
// of the message and capacity for a sizeHint-byte message behind them:
// one allocation of exactly headroom+sizeHint bytes when the hint is
// exact.
func NewWriterHeadroom(headroom, sizeHint int) *Writer {
	return &Writer{buf: make([]byte, headroom, headroom+sizeHint), head: headroom, room: headroom}
}

// Around returns a writer over an existing buffer whose message is
// buf[head:] and whose headroom is buf[:head]. A forwarding hop uses it
// to put a fresh header in front of a body it received (and owns)
// instead of copying the body behind a new header.
func Around(buf []byte, head int) *Writer {
	return &Writer{buf: buf, head: head, room: head}
}

// Bytes returns the encoded message. The writer must not be used after,
// except through Reset.
func (w *Writer) Bytes() []byte { return w.buf[w.head:] }

// BytesWithHeadroom returns the encoded message preceded by n bytes of
// its still-unused headroom, for a layer below that fills them in. It
// panics when fewer than n bytes of headroom remain.
func (w *Writer) BytesWithHeadroom(n int) []byte {
	if n > w.head {
		panic(fmt.Sprintf("wire: %d bytes of headroom requested, %d left", n, w.head))
	}
	return w.buf[w.head-n:]
}

// Reset empties the writer while keeping its backing buffer (and its
// original headroom), so one writer can assemble many messages without
// reallocating. Slices handed out by Bytes are overwritten by
// subsequent writes; callers reusing a writer must be done with the
// previous message first.
func (w *Writer) Reset() { w.head, w.buf = w.room, w.buf[:w.room] }

// Len returns the current encoded size.
func (w *Writer) Len() int { return len(w.buf) - w.head }

// prepend claims the n headroom bytes right in front of the message.
func (w *Writer) prepend(n int) []byte {
	if n > w.head {
		panic(fmt.Sprintf("wire: prepending %d bytes into %d of headroom", n, w.head))
	}
	w.head -= n
	return w.buf[w.head : w.head+n]
}

// PrependU8 writes one byte in front of the message.
func (w *Writer) PrependU8(v uint8) { w.prepend(1)[0] = v }

// PrependU32 writes a big-endian 32-bit value in front of the message.
func (w *Writer) PrependU32(v uint32) { binary.BigEndian.PutUint32(w.prepend(4), v) }

// PrependU64 writes a big-endian 64-bit value in front of the message.
func (w *Writer) PrependU64(v uint64) { binary.BigEndian.PutUint64(w.prepend(8), v) }

// Extend appends n zero bytes and returns them for the caller to fill
// in place — room for AEAD nonces and tags, or a body sealed where it
// lies.
func (w *Writer) Extend(n int) []byte {
	old := len(w.buf)
	w.buf = append(w.buf, make([]byte, n)...)
	return w.buf[old:]
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U16 appends a big-endian 16-bit value.
func (w *Writer) U16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }

// U32 appends a big-endian 32-bit value.
func (w *Writer) U32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }

// U64 appends a big-endian 64-bit value.
func (w *Writer) U64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }

// Bytes32 appends a u32 length prefix followed by b.
func (w *Writer) Bytes32(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// Bytes16 appends a u16 length prefix followed by b. It panics if b is
// longer than 65535 bytes; use Bytes32 for large fields.
func (w *Writer) Bytes16(b []byte) {
	if len(b) > 0xFFFF {
		panic(fmt.Sprintf("wire: Bytes16 field of %d bytes", len(b)))
	}
	w.U16(uint16(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a u16-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	if len(s) > 0xFFFF {
		panic(fmt.Sprintf("wire: string field of %d bytes", len(s)))
	}
	w.U16(uint16(len(s)))
	w.buf = append(w.buf, s...)
}

// Padded appends b zero-padded (or truncated — caller beware) to
// exactly size bytes, preceded by a u16 carrying b's true length. Used
// to emulate fixed-size key blobs so bandwidth accounting matches the
// paper's 1 KB-per-key arithmetic regardless of the RSA modulus chosen
// for a run.
func (w *Writer) Padded(b []byte, size int) {
	if len(b) > size {
		panic(fmt.Sprintf("wire: Padded: %d bytes exceed blob size %d", len(b), size))
	}
	w.U16(uint16(len(b)))
	copy(w.Extend(size), b)
}

// Raw appends b with no framing.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Reader decodes a message produced by Writer.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps buf for decoding. The reader does not copy buf;
// returned byte slices alias it.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Fail makes err the reader's sticky error, unless an earlier field
// already failed: a decoder that finds a well-framed field carrying a
// value it must not accept (a count beyond its limit) stops the parse
// the same way a truncated field does.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.err = ErrTruncated
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U16 reads a big-endian 16-bit value.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian 32-bit value.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian 64-bit value.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Bytes32 reads a u32-prefixed byte field.
func (r *Reader) Bytes32() []byte {
	n := r.U32()
	if r.err == nil && int(n) > r.Remaining() {
		r.err = ErrTooLarge
		return nil
	}
	return r.take(int(n))
}

// Bytes16 reads a u16-prefixed byte field.
func (r *Reader) Bytes16() []byte {
	n := r.U16()
	if r.err == nil && int(n) > r.Remaining() {
		r.err = ErrTooLarge
		return nil
	}
	return r.take(int(n))
}

// String reads a u16-prefixed string.
func (r *Reader) String() string { return string(r.Bytes16()) }

// Padded reads a field written by Writer.Padded with the same size.
func (r *Reader) Padded(size int) []byte {
	n := r.U16()
	blob := r.take(size)
	if blob == nil {
		return nil
	}
	if int(n) > size {
		r.err = ErrTooLarge
		return nil
	}
	return blob[:n]
}

// Raw reads n unframed bytes.
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// Rest returns all remaining bytes.
func (r *Reader) Rest() []byte { return r.take(r.Remaining()) }

// Close returns an error if decoding failed or unread bytes remain —
// useful at the end of a strict parse.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("wire: %d trailing bytes", r.Remaining())
	}
	return nil
}
