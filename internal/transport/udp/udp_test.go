package udp

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"whisper/internal/transport"
)

func newT(t *testing.T) *Transport {
	t.Helper()
	tr, err := New("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	return tr
}

func TestTimerOrderingAndCancel(t *testing.T) {
	tr := newT(t)
	tr.Start()
	fired := make(chan int, 3)
	tr.Do(func() {
		tr.After(30*time.Millisecond, func() { fired <- 3 })
		tr.After(10*time.Millisecond, func() { fired <- 1 })
		tm := tr.After(20*time.Millisecond, func() { fired <- 2 })
		tm.Cancel()
		if !tm.Stopped() {
			t.Error("cancelled timer not Stopped")
		}
	})
	if got := <-fired; got != 1 {
		t.Fatalf("first firing = %d, want 1", got)
	}
	if got := <-fired; got != 3 {
		t.Fatalf("second firing = %d, want 3 (2 was cancelled)", got)
	}
	select {
	case got := <-fired:
		t.Fatalf("unexpected extra firing %d", got)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestTickerFiresAndStops(t *testing.T) {
	tr := newT(t)
	tr.Start()
	var ticks atomic.Int32
	var tk transport.Ticker
	tr.Do(func() {
		tk = tr.EveryJitter(5*time.Millisecond, 2*time.Millisecond, func() {
			ticks.Add(1)
		})
	})
	deadline := time.Now().Add(2 * time.Second)
	for ticks.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if ticks.Load() < 3 {
		t.Fatalf("ticker fired %d times, want >= 3", ticks.Load())
	}
	tr.Do(func() { tk.Stop() })
	n := ticks.Load()
	time.Sleep(30 * time.Millisecond)
	if got := ticks.Load(); got != n {
		t.Fatalf("ticker fired after Stop (%d -> %d)", n, got)
	}
}

// TestOverlayRoundTrip sends a datagram a->b via a static address-book
// entry, and the reply b->a rides the dynamically learned mapping.
func TestOverlayRoundTrip(t *testing.T) {
	a, b := newT(t), newT(t)
	epA := transport.Endpoint{IP: 1, Port: 1}
	epB := transport.Endpoint{IP: 2, Port: 1}
	if err := a.AddPeer(epB, b.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	// b has no static entry for a: the reply must use the learned one.
	reply := make(chan transport.Datagram, 1)
	a.Attach(epA.IP, transport.HandlerFunc(func(dg transport.Datagram) {
		reply <- dg
	}))
	b.Attach(epB.IP, transport.HandlerFunc(func(dg transport.Datagram) {
		b.Send(transport.Datagram{Src: epB, Dst: dg.Src, Payload: append([]byte("re:"), dg.Payload...)})
	}))
	a.Start()
	b.Start()
	a.Do(func() {
		a.Send(transport.Datagram{Src: epA, Dst: epB, Payload: []byte("ping")})
	})
	select {
	case dg := <-reply:
		if string(dg.Payload) != "re:ping" || dg.Src != epB {
			t.Fatalf("reply = %q from %v", dg.Payload, dg.Src)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no reply within deadline")
	}
	if a.Unrouted() != 0 {
		t.Fatalf("unrouted = %d", a.Unrouted())
	}
}

func TestUnroutedDropped(t *testing.T) {
	a := newT(t)
	a.Start()
	a.Do(func() {
		a.Send(transport.Datagram{
			Src:     transport.Endpoint{IP: 1, Port: 1},
			Dst:     transport.Endpoint{IP: 99, Port: 1},
			Payload: []byte("void"),
		})
	})
	if got := a.Unrouted(); got != 1 {
		t.Fatalf("unrouted = %d, want 1", got)
	}
}

// TestUnencapsulatedDropped checks that a datagram without the
// encapsulation header reaches no handler and teaches the book nothing.
func TestUnencapsulatedDropped(t *testing.T) {
	a, b := newT(t), newT(t)
	epA := transport.Endpoint{IP: 1, Port: 1}
	epB := transport.Endpoint{IP: 2, Port: 1}
	if err := a.AddPeer(epB, b.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	got := make(chan transport.Datagram, 4)
	b.Attach(epB.IP, transport.HandlerFunc(func(dg transport.Datagram) { got <- dg }))
	a.Start()
	b.Start()
	bare, err := net.DialUDP("udp", nil, b.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	// A bare payload shaped like a header but without the magic byte.
	if _, err := bare.Write([]byte{0, encapVersion, 0, 0, 0, 9, 0, 1, 0, 0, 0, 2, 0, 1, 'x'}); err != nil {
		t.Fatal(err)
	}
	a.Do(func() { a.Send(transport.Datagram{Src: epA, Dst: epB, Payload: []byte("ok")}) })
	select {
	case dg := <-got:
		if string(dg.Payload) != "ok" {
			t.Fatalf("handler got %q, want the encapsulated datagram", dg.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("encapsulated datagram not delivered")
	}
	select {
	case dg := <-got:
		t.Fatalf("unexpected second delivery %q", dg.Payload)
	case <-time.After(50 * time.Millisecond):
	}
	if _, learned := b.BookSize(); learned != 1 {
		t.Fatalf("learned %d book entries, want 1 (only the encapsulated sender)", learned)
	}
}

// TestPortOverTransport wires a transport.Port (the metered socket the
// protocol stacks use) directly over the UDP transport.
func TestPortOverTransport(t *testing.T) {
	a, b := newT(t), newT(t)
	epA := transport.Endpoint{IP: 10, Port: 1}
	epB := transport.Endpoint{IP: 20, Port: 1}
	if err := a.AddPeer(epB, b.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	var meter transport.Meter
	port := transport.NewPort(epA, a, &meter)
	a.Attach(epA.IP, port)
	seen := make(chan struct{})
	b.Attach(epB.IP, transport.HandlerFunc(func(dg transport.Datagram) { close(seen) }))
	a.Start()
	b.Start()
	a.Do(func() { port.Send(epB, []byte("metered")) })
	select {
	case <-seen:
	case <-time.After(2 * time.Second):
		t.Fatal("datagram not delivered")
	}
	if s := meter.Snapshot(); s.UpMsgs != 1 || s.UpBytes == 0 {
		t.Fatalf("meter = %+v", s)
	}
}

// TestHandlerOwnsItsPayload is the transport.Datagram ownership
// contract on real sockets: every delivered payload is the handler's to
// overwrite and to keep, so a retained payload must survive both the
// handler scribbling over later ones and the reader receiving more
// packets into its socket buffer.
func TestHandlerOwnsItsPayload(t *testing.T) {
	a, b := newT(t), newT(t)
	epA := transport.Endpoint{IP: 1, Port: 1}
	epB := transport.Endpoint{IP: 2, Port: 1}
	if err := a.AddPeer(epB, b.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	const total = 50
	var kept [][]byte
	done := make(chan struct{})
	b.Attach(epB.IP, transport.HandlerFunc(func(dg transport.Datagram) {
		if len(kept)%2 == 1 {
			for i := range dg.Payload[1:] {
				dg.Payload[1+i] = 0xFF // scribble over every other one
			}
		}
		kept = append(kept, dg.Payload)
		if len(kept) == total {
			close(done)
		}
	}))
	a.Start()
	b.Start()
	for i := 0; i < total; i++ {
		i := i
		a.Do(func() {
			a.Send(transport.Datagram{Src: epA, Dst: epB, Payload: []byte{byte(i), 'k', 'e', 'e', 'p'}})
		})
		time.Sleep(time.Millisecond) // loopback keeps up; a dropped packet fails the count below
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("not every datagram arrived")
	}
	for n, p := range kept {
		want := "keep"
		if n%2 == 1 {
			want = "\xff\xff\xff\xff"
		}
		if string(p[1:]) != want {
			t.Fatalf("kept payload %d reads %q, want %q: payload buffers are shared", n, p[1:], want)
		}
	}
}
