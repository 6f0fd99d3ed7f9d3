package wcl

import (
	"runtime"
	"testing"
	"time"

	"whisper/internal/crypt"
	"whisper/internal/identity"
	"whisper/internal/netem"
	"whisper/internal/nylon"
	simtr "whisper/internal/transport/simnet"
	"whisper/internal/wire"
)

// allocBytesPerRun is testing.AllocsPerRun for bytes: the heap bytes f
// allocates per call, after one warm-up call.
func allocBytesPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// sealedCellPayloads builds n data-cell messages as a hop's handleApp
// receives them, sealed under keys, each in a buffer of its own (a hop
// opens its layer in place, so a cell can be handled once).
func sealedCellPayloads(t *testing.T, n int, circID uint64, keys [][]byte, body []byte) [][]byte {
	t.Helper()
	out := make([][]byte, n)
	for i := range out {
		cw := newCellWriter(len(keys), 1+len(body))
		cw.U8(cellData)
		cw.Raw(body)
		if err := sealCell(nil, keys, cw); err != nil {
			t.Fatal(err)
		}
		out[i] = payloadOf(frameCircData(cw, circID, uint64(i+1)))
	}
	return out
}

// TestCellAllocBudgets pins the buffer discipline of the cell path per
// role, in payload-sized allocations: the source copies the message
// once, into the datagram that travels; a relay and the exit allocate
// nothing of the payload's size — they open their layer in the datagram
// they were handed and pass on, or deliver, a sub-slice of it. What
// remains per cell is small and fixed (a timer, an event, an ack).
func TestCellAllocBudgets(t *testing.T) {
	const (
		size = 4096
		runs = 200
		// small bounds everything that is not a copy of the payload.
		small = 1024
	)
	body := make([]byte, size)
	keys, err := crypt.DeriveCircuitKeys(make([]byte, crypt.CircuitSecretSize), 3)
	if err != nil {
		t.Fatal(err)
	}
	next := netem.Endpoint{IP: 9, Port: 1}
	src := netem.Endpoint{IP: 8, Port: 1}

	t.Run("source", func(t *testing.T) {
		w := newBareWCL(t)
		c := w.OpenCircuit(Dest{ID: 2, Key: identity.TestKeys(1)[0].Public()})
		p := &circPath{c: c, id: 7, keys: keys, established: true,
			first:        nylon.Descriptor{ID: 3, Public: true, Contact: next},
			pendingCells: make(map[uint64]*pendingCell)}
		c.cur, w.circByID[p.id] = p, p
		got := allocBytesPerRun(runs, func() { c.Send(body, nil) })
		if st := w.Stats(); st.CellsSent != runs+1 || st.CellFallbacks != 0 {
			t.Fatalf("cells did not travel as cells: %+v", st)
		}
		// One buffer of the payload's size (rounded up to its size
		// class) plus the small change; a second copy would double it.
		if got > size+size/2 {
			t.Errorf("Circuit.Send allocates %.0f B per %d-byte cell, want one payload-sized buffer (≤ %d B)", got, size, size+size/2)
		}
	})

	t.Run("relay", func(t *testing.T) {
		w := newBareWCL(t)
		w.relayCirc.put(&relayCircuit{id: 7, key: keys[0], next: hopAddr{kind: addrByEndpoint, ep: next}}, 0)
		cells, i := sealedCellPayloads(t, runs+1, 7, keys, body), 0
		got := allocBytesPerRun(runs, func() { w.handleApp(src, cells[i]); i++ })
		if st := w.Stats(); st.CellsForwarded != runs+1 {
			t.Fatalf("relay forwarded %d of %d cells: %+v", st.CellsForwarded, runs+1, st)
		}
		if got > small {
			t.Errorf("relay allocates %.0f B per %d-byte cell, want no payload-sized buffer (≤ %d B)", got, size, small)
		}
	})

	t.Run("exit", func(t *testing.T) {
		w := newBareWCL(t)
		w.relayCirc.put(&relayCircuit{id: 7, key: keys[2], exit: true, back: hopBack{direct: src}}, 0)
		delivered := 0
		w.OnReceive = func(p []byte) {
			if len(p) == size {
				delivered++
			}
		}
		cells, i := sealedCellPayloads(t, runs+1, 7, keys[2:], body), 0
		got := allocBytesPerRun(runs, func() { w.handleApp(src, cells[i]); i++ })
		if delivered != runs+1 {
			t.Fatalf("exit delivered %d of %d cells", delivered, runs+1)
		}
		if got > small {
			t.Errorf("exit allocates %.0f B per %d-byte cell, want no payload-sized buffer (≤ %d B)", got, size, small)
		}
	})
}

// TestRelayForwardsTheDatagramItReceived pins the mechanism behind the
// relay budget: the frame a relay sends on is a sub-slice of the
// payload it was handed, one nonce shorter at the front and one tag at
// the back, and opens at the next hop.
func TestRelayForwardsTheDatagramItReceived(t *testing.T) {
	w := newBareWCL(t)
	keys, err := crypt.DeriveCircuitKeys(make([]byte, crypt.CircuitSecretSize), 2)
	if err != nil {
		t.Fatal(err)
	}
	next := netem.Endpoint{IP: 9, Port: 1}
	var sent []byte
	w.rt.Attach(next.IP, netem.HandlerFunc(func(dg netem.Datagram) { sent = dg.Payload }))
	w.relayCirc.put(&relayCircuit{id: 7, key: keys[0], next: hopAddr{kind: addrByEndpoint, ep: next}}, 0)
	in := sealedCellPayloads(t, 1, 7, keys, []byte("body"))[0]
	w.handleApp(netem.Endpoint{IP: 8, Port: 1}, in)
	w.rt.(*simtr.Transport).Sim().RunFor(time.Second)
	if len(sent) != nylon.AppHeadroom+len(in)-crypt.NonceSize-crypt.TagSize {
		t.Fatalf("forwarded %d bytes for %d received", len(sent), len(in))
	}
	if &sent[0] != &in[crypt.NonceSize-nylon.AppHeadroom] {
		t.Fatal("the forwarded datagram is not a sub-slice of the received one")
	}
	r := wire.NewReader(sent)
	if r.U8() != nylon.MsgApp || r.U8() != msgCircData {
		t.Fatalf("forwarded datagram starts % x", sent[:2])
	}
	m, err := decodeCircData(r)
	if err != nil || m.CircID != 7 || m.Seq != 1 {
		t.Fatalf("forwarded header: %+v, %v", m, err)
	}
	pt, err := crypt.OpenSymInPlace(nil, keys[1], m.Cell)
	if err != nil || string(pt) != string([]byte{cellData})+"body" {
		t.Fatalf("next hop opens %q, %v", pt, err)
	}
}
