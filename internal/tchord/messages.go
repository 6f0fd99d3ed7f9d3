package tchord

import (
	"fmt"

	"whisper/internal/ppss"
	"whisper/internal/wire"
)

// T-Chord message tags (inside PPSS app payloads).
const (
	tagTManReq uint8 = 0x70 + iota
	tagTManResp
	tagLookupReq
	tagLookupResp
)

// Lookup operations.
const (
	opLookup uint8 = iota + 1
	opPut
	opGet
)

// lookupMsg is a greedy-routed query. It ships the origin's entry so
// the owner can answer with a single WCL path (§V-G).
type lookupMsg struct {
	QID    uint64
	Key    ChordID
	Op     uint8
	SKey   string
	Value  []byte
	Origin ppss.Entry
	Hops   int
}

func (m lookupMsg) encode(keyBlob int) []byte {
	w := wire.NewWriter(1 + 8 + 8 + 1 + 2 + len(m.SKey) + 4 + len(m.Value) + 1 + m.Origin.EncodedSize(keyBlob))
	w.U8(tagLookupReq)
	w.U64(m.QID)
	w.U64(uint64(m.Key))
	w.U8(m.Op)
	w.String(m.SKey)
	w.Bytes32(m.Value)
	w.U8(uint8(m.Hops))
	m.Origin.Encode(w, keyBlob)
	return w.Bytes()
}

func decodeLookup(r *wire.Reader, keyBlob int) (lookupMsg, error) {
	var m lookupMsg
	m.QID = r.U64()
	m.Key = ChordID(r.U64())
	m.Op = r.U8()
	m.SKey = r.String()
	m.Value = r.Bytes32()
	m.Hops = int(r.U8())
	m.Origin = ppss.DecodeEntry(r, keyBlob)
	if err := r.Err(); err != nil {
		return m, fmt.Errorf("tchord: decoding lookup: %w", err)
	}
	return m, nil
}

// lookupRespMsg answers a query directly to the origin.
type lookupRespMsg struct {
	QID   uint64
	Key   ChordID
	Owner ppss.Entry
	Hops  int
	Value []byte
	Found bool
}

func (m lookupRespMsg) encode(keyBlob int) []byte {
	w := wire.NewWriter(1 + 8 + 8 + 1 + 4 + len(m.Value) + 1 + m.Owner.EncodedSize(keyBlob))
	w.U8(tagLookupResp)
	w.U64(m.QID)
	w.U64(uint64(m.Key))
	w.U8(uint8(m.Hops))
	w.Bytes32(m.Value)
	w.Bool(m.Found)
	m.Owner.Encode(w, keyBlob)
	return w.Bytes()
}

func decodeLookupResp(r *wire.Reader, keyBlob int) (lookupRespMsg, error) {
	var m lookupRespMsg
	m.QID = r.U64()
	m.Key = ChordID(r.U64())
	m.Hops = int(r.U8())
	m.Value = r.Bytes32()
	m.Found = r.Bool()
	m.Owner = ppss.DecodeEntry(r, keyBlob)
	if err := r.Err(); err != nil {
		return m, fmt.Errorf("tchord: decoding lookup response: %w", err)
	}
	return m, nil
}
