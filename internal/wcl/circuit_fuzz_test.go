package wcl

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"whisper/internal/crypt"
	"whisper/internal/identity"
	"whisper/internal/netem"
	"whisper/internal/nylon"
	"whisper/internal/wire"
)

// payloadOf strips the nylon headroom off a frame an encoder returned:
// what the receiving WCL's handleApp is handed.
func payloadOf(frame []byte) []byte { return frame[nylon.AppHeadroom:] }

// circDataFrame frames m.Cell as an (unsealed) data cell message.
func circDataFrame(m *circDataMsg) []byte {
	w := wire.NewWriterHeadroom(nylon.AppHeadroom+circDataHeader, len(m.Cell))
	w.Raw(m.Cell)
	return frameCircData(w, m.CircID, m.Seq)
}

// TestCircuitHandleAppNeverPanics floods the dispatcher with tagged
// garbage aimed at the circuit codecs: truncated setups, bogus cells,
// stray acks and closes.
func TestCircuitHandleAppNeverPanics(t *testing.T) {
	w := newBareWCL(t)
	src := netem.Endpoint{IP: 9, Port: 9}
	rng := rand.New(rand.NewSource(46))
	for _, tag := range []uint8{msgCircSetup, msgCircAck, msgCircData, msgCircCellAck, msgCircClose, msgCircStreamAck} {
		for i := 0; i < 500; i++ {
			body := make([]byte, rng.Intn(300))
			rng.Read(body)
			w.handleApp(src, append([]byte{tag}, body...))
		}
	}
	// Whole-payload fuzz across every tag at once.
	f := func(payload []byte) bool {
		w.handleApp(src, payload)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(47))}); err != nil {
		t.Fatal(err)
	}
}

// TestCircSetupCodecRoundTrip: encode → decode is the identity for the
// circuit setup message, including empty and capped via paths.
func TestCircSetupCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for i := 0; i < 500; i++ {
		m := &circSetupMsg{
			CircID: rng.Uint64(),
			From:   identity.NodeID(rng.Uint64()),
			Onion:  make([]byte, rng.Intn(200)),
		}
		rng.Read(m.Onion)
		for j := rng.Intn(5); j > 0; j-- {
			m.ViaPath = append(m.ViaPath, identity.NodeID(rng.Uint64()))
		}
		r := wire.NewReader(payloadOf(m.encode()))
		if got := r.U8(); got != msgCircSetup {
			t.Fatalf("tag = %d", got)
		}
		dec, err := decodeCircSetup(r)
		if err != nil {
			t.Fatal(err)
		}
		if dec.CircID != m.CircID || dec.From != m.From ||
			!reflect.DeepEqual(dec.ViaPath, m.ViaPath) ||
			string(dec.Onion) != string(m.Onion) {
			t.Fatalf("round trip mismatch: %+v != %+v", dec, m)
		}
	}
}

// TestCircDataCodecRoundTrip: encode → decode is the identity for data
// cells, and the cell payload framing round-trips its type byte.
func TestCircDataCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for i := 0; i < 500; i++ {
		m := &circDataMsg{CircID: rng.Uint64(), Seq: rng.Uint64(), Cell: make([]byte, rng.Intn(300))}
		rng.Read(m.Cell)
		r := wire.NewReader(payloadOf(circDataFrame(m)))
		if got := r.U8(); got != msgCircData {
			t.Fatalf("tag = %d", got)
		}
		dec, err := decodeCircData(r)
		if err != nil {
			t.Fatal(err)
		}
		if dec.CircID != m.CircID || dec.Seq != m.Seq || string(dec.Cell) != string(m.Cell) {
			t.Fatalf("round trip mismatch: %+v != %+v", dec, m)
		}
	}
	for _, typ := range []uint8{cellData, cellPing} {
		payload := []byte("payload-bytes")
		gotTyp, gotPayload, ok := decodeCellPayload(append([]byte{typ}, payload...))
		if !ok || gotTyp != typ || string(gotPayload) != string(payload) {
			t.Fatalf("cell framing round trip failed for type %d", typ)
		}
	}
	if _, _, ok := decodeCellPayload(nil); ok {
		t.Fatal("empty cell payload decoded")
	}
}

// TestCircControlCodecs: the fixed-size control messages (ack, cell
// ack, close) carry exactly their identifiers.
func TestCircControlCodecs(t *testing.T) {
	r := wire.NewReader(payloadOf(encodeCircAck(7)))
	if r.U8() != msgCircAck || r.U64() != 7 || r.Err() != nil {
		t.Fatal("circuit ack codec broken")
	}
	r = wire.NewReader(payloadOf(encodeCircCellAck(7, 9)))
	if r.U8() != msgCircCellAck || r.U64() != 7 || r.U64() != 9 || r.Err() != nil {
		t.Fatal("cell ack codec broken")
	}
	r = wire.NewReader(payloadOf(encodeCircClose(7)))
	if r.U8() != msgCircClose || r.U64() != 7 || r.Err() != nil {
		t.Fatal("close codec broken")
	}
}

// TestCircuitSetupWithForeignOnion: a well-formed setup whose onion
// targets someone else's key is dropped with a peel error — no table
// entry, no acknowledgement.
func TestCircuitSetupWithForeignOnion(t *testing.T) {
	w := newBareWCL(t)
	foreign := identity.TestKeys(2)[1]
	secret, err := crypt.NewCircuitSecret()
	if err != nil {
		t.Fatal(err)
	}
	keys, err := crypt.DeriveCircuitKeys(secret, 1)
	if err != nil {
		t.Fatal(err)
	}
	onion, err := crypt.BuildCircuitOnion(nil, []crypt.CircuitHop{{Pub: foreign.Public(), Key: keys[0]}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := &circSetupMsg{CircID: 7, From: 99, Onion: onion}
	w.handleApp(netem.Endpoint{IP: 9, Port: 9}, payloadOf(m.encode()))
	if w.Stats().PeelErrors != 1 {
		t.Fatalf("peel errors = %d, want 1", w.Stats().PeelErrors)
	}
	if w.relayCirc.size() != 0 {
		t.Fatal("foreign setup installed a table entry")
	}
}

// TestCircuitDataWithoutEntry: a data cell for an unknown circuit is
// dropped and counted, never delivered.
func TestCircuitDataWithoutEntry(t *testing.T) {
	w := newBareWCL(t)
	delivered := false
	w.OnReceive = func([]byte) { delivered = true }
	m := &circDataMsg{CircID: 12345, Seq: 1, Cell: []byte("garbage")}
	w.handleApp(netem.Endpoint{IP: 9, Port: 9}, payloadOf(circDataFrame(m)))
	if w.Stats().CellDrops != 1 {
		t.Fatalf("cell drops = %d, want 1", w.Stats().CellDrops)
	}
	if delivered {
		t.Fatal("unknown-circuit cell delivered")
	}
}
