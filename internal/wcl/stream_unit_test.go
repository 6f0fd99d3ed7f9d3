package wcl

import (
	"bytes"
	"math/rand"
	"testing"

	"whisper/internal/identity"
	"whisper/internal/netem"
	"whisper/internal/nylon"
	"whisper/internal/simnet"
	simtr "whisper/internal/transport/simnet"
	"whisper/internal/wire"
)

func newBareWCLWith(t testing.TB, cfg Config) *WCL {
	t.Helper()
	s := simnet.New(1)
	nw := netem.New(s, netem.Fixed{})
	ident := &identity.Identity{ID: 1, Key: identity.TestKeys(1)[0]}
	node := nylon.NewNode(simtr.New(s, nw), ident, 0, netem.Endpoint{IP: 5, Port: 1}, nil,
		nylon.Config{KeySampling: true, KeyBlobSize: 256})
	w, err := New(node, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestClosePathDrainsPendingInSeqOrder is the regression for the
// map-order drain bug: when a path tears down with many cells in
// flight, their one-shot fallbacks must launch in ascending sequence
// order — the order the application sent them — not in Go map
// iteration order (which varies run to run and once decided resend
// order here).
func TestClosePathDrainsPendingInSeqOrder(t *testing.T) {
	w := newBareWCLWith(t, Config{})
	// A destination with no key makes every fallback fail synchronously
	// through failEarly, so the done-callback order IS the drain order.
	c := &Circuit{w: w, dest: Dest{ID: 42}}
	p := &circPath{c: c, pendingCells: make(map[uint64]*pendingCell)}

	seqs := []uint64{7, 3, 11, 1, 9, 5, 12, 2, 10, 4, 8, 6}
	var order []uint64
	for _, seq := range seqs {
		seq := seq
		p.pendingCells[seq] = &pendingCell{
			payload: []byte{byte(seq)},
			done:    func(Result) { order = append(order, seq) },
		}
	}
	w.closePath(p, false)

	if len(order) != len(seqs) {
		t.Fatalf("drained %d cells, want %d", len(order), len(seqs))
	}
	for i, seq := range order {
		if want := uint64(i + 1); seq != want {
			t.Fatalf("drain order %v: position %d is seq %d, want %d", order, i, seq, want)
		}
	}
	if got := w.Stats().CellFallbacks; got != uint64(len(seqs)) {
		t.Fatalf("CellFallbacks = %d, want %d", got, len(seqs))
	}
}

// TestCellDedupClampedToWindow pins the exactly-once invariant between
// the exit's (circID, seq) dedup LRU and the stream send window: the
// dedup capacity is at least 4× the window (a window's worth of
// fragments can be retransmitted under fresh seqs), or a late
// retransmit of an evicted seq would be re-delivered. Both are
// constants (wcl.go also asserts the relation at compile time), and New
// must size the exit dedup from the dedup constant.
func TestCellDedupClampedToWindow(t *testing.T) {
	t.Run("defaults", func(t *testing.T) {
		if circuitDedupCells < 4*streamWindow {
			t.Fatalf("invariant violated: dedup %d < 4×window %d", circuitDedupCells, streamWindow)
		}
		if streamWindow > 64 {
			t.Fatalf("streamWindow %d exceeds the 64-bit selective-ack bitmap", streamWindow)
		}
		w := newBareWCLWith(t, Config{})
		if got := w.deliveredCells.Cap(); got != circuitDedupCells {
			t.Fatalf("deliveredCells capacity = %d, want circuitDedupCells %d", got, circuitDedupCells)
		}
	})
}

// fragBytes is the stream sub-frame as it lies inside a cell.
func fragBytes(f streamFrag) []byte {
	w := wire.NewWriter(streamFragHeader + len(f.Data))
	f.writeTo(w)
	return w.Bytes()
}

// TestStreamCodecRoundTrip: encode → decode is the identity for stream
// fragments and stream acks.
func TestStreamCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < 500; i++ {
		f := streamFrag{
			StreamID:  rng.Uint64(),
			Frag:      uint32(rng.Intn(1000)),
			FragCount: uint32(1000 + rng.Intn(1000)),
			Data:      make([]byte, rng.Intn(300)),
		}
		rng.Read(f.Data)
		dec, err := decodeStreamFrag(fragBytes(f))
		if err != nil {
			t.Fatal(err)
		}
		if dec.StreamID != f.StreamID || dec.Frag != f.Frag ||
			dec.FragCount != f.FragCount || !bytes.Equal(dec.Data, f.Data) {
			t.Fatalf("fragment round trip mismatch: %+v != %+v", dec, f)
		}
	}
	for i := 0; i < 500; i++ {
		m := streamAckMsg{CircID: rng.Uint64(), StreamID: rng.Uint64(), Cum: rng.Uint32(), Bits: rng.Uint64()}
		r := wire.NewReader(payloadOf(m.encode()))
		if got := r.U8(); got != msgCircStreamAck {
			t.Fatalf("tag = %d", got)
		}
		dec, err := decodeStreamAck(r)
		if err != nil {
			t.Fatal(err)
		}
		if dec != m {
			t.Fatalf("ack round trip mismatch: %+v != %+v", dec, m)
		}
	}
	// Out-of-range fragments are refused, not collected.
	bad := streamFrag{StreamID: 1, Frag: 0, FragCount: 0}
	if _, err := decodeStreamFrag(fragBytes(bad)); err == nil {
		t.Fatal("zero fragment count decoded")
	}
	bad = streamFrag{StreamID: 1, Frag: 5, FragCount: 5}
	if _, err := decodeStreamFrag(fragBytes(bad)); err == nil {
		t.Fatal("fragment index == count decoded")
	}
	bad = streamFrag{StreamID: 1, Frag: 0, FragCount: maxStreamFrags + 1}
	if _, err := decodeStreamFrag(fragBytes(bad)); err == nil {
		t.Fatal("oversized fragment count decoded")
	}
}

// FuzzDecodeStreamFrag: arbitrary bytes never panic the fragment
// decoder, and everything it accepts re-encodes to a decodable frame.
func FuzzDecodeStreamFrag(f *testing.F) {
	f.Add([]byte{})
	f.Add(fragBytes(streamFrag{StreamID: 7, Frag: 1, FragCount: 3, Data: []byte("abc")}))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		frag, err := decodeStreamFrag(b)
		if err != nil {
			return
		}
		dec, err := decodeStreamFrag(fragBytes(frag))
		if err != nil {
			t.Fatalf("accepted fragment failed to re-decode: %v", err)
		}
		if dec.StreamID != frag.StreamID || dec.Frag != frag.Frag ||
			dec.FragCount != frag.FragCount || !bytes.Equal(dec.Data, frag.Data) {
			t.Fatalf("re-decode mismatch: %+v != %+v", dec, frag)
		}
	})
}

// FuzzDecodeStreamAck: arbitrary bytes never panic the ack decoder,
// and accepted acks round-trip.
func FuzzDecodeStreamAck(f *testing.F) {
	f.Add([]byte{})
	f.Add((&streamAckMsg{CircID: 7, StreamID: 9, Cum: 2, Bits: 5}).encode()[nylon.AppHeadroom+1:])
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeStreamAck(wire.NewReader(b))
		if err != nil {
			return
		}
		dec, err := decodeStreamAck(wire.NewReader(m.encode()[nylon.AppHeadroom+1:]))
		if err != nil || dec != m {
			t.Fatalf("re-decode mismatch: %+v != %+v (%v)", dec, m, err)
		}
	})
}
