package udp_test

import (
	"testing"
	"time"

	"whisper/internal/core"
	"whisper/internal/identity"
	"whisper/internal/nat"
	"whisper/internal/nylon"
	"whisper/internal/ppss"
	"whisper/internal/transport"
	"whisper/internal/transport/udp"
	"whisper/internal/wcl"
)

// stackNode is one full WHISPER stack over its own real UDP socket.
type stackNode struct {
	tr *udp.Transport
	st *core.Stack
	ep transport.Endpoint
}

// TestFullStackOverLoopback is the acceptance test of the transport
// abstraction: eight nodes on loopback sockets run Nylon gossip, form
// a private group over PPSS, and exchange a confidential message
// through WCL onion routes — the same code paths the emulator drives,
// now over real packets and real goroutines.
func TestFullStackOverLoopback(t *testing.T) {
	const n = 8
	pool := identity.TestPool(n)
	nodes := make([]*stackNode, n)
	for i := range nodes {
		tr, err := udp.New("127.0.0.1:0", int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		ep := transport.Endpoint{IP: transport.IP(i + 1), Port: 1}
		st, err := core.NewStack(tr, pool.Identity(identity.NodeID(i+1)), nat.None, ep, nil, core.Config{
			Nylon: nylon.Config{
				Cycle:          100 * time.Millisecond,
				ViewSize:       6,
				ExchangeSize:   3,
				ShuffleTimeout: time.Second,
			},
			WCL: &wcl.Config{},
			PPSS: &ppss.Config{
				Cycle:       150 * time.Millisecond,
				RespTimeout: time.Second,
				JoinTimeout: 5 * time.Second,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = &stackNode{tr: tr, st: st, ep: ep}
	}
	// Full-mesh address book: every overlay endpoint resolves to its
	// real socket (the tracker/bootstrap role of a deployment).
	for i, a := range nodes {
		for j, b := range nodes {
			if i == j {
				continue
			}
			if err := a.tr.AddPeer(b.ep, b.tr.LocalAddr().String()); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Seed each view with three ring neighbours and start gossip. All
	// of this happens pre-Start, so no dispatch loop is running yet.
	for i, a := range nodes {
		var ds []nylon.Descriptor
		for k := 1; k <= 3; k++ {
			ds = append(ds, nodes[(i+k)%n].st.Nylon.SelfDescriptor())
		}
		a.st.Nylon.Bootstrap(ds)
		a.st.Start()
		a.tr.Start()
	}

	// Wait until gossip fills every view and every connection backlog
	// holds enough P-nodes (with sampled keys) to build onion paths.
	waitFor(t, 30*time.Second, "gossip convergence", func() bool {
		for _, a := range nodes {
			ready := false
			a.tr.Do(func() {
				ready = len(a.st.Nylon.ViewIDs()) >= 4 &&
					len(a.st.WCL.Backlog().Publics()) >= 3
			})
			if !ready {
				return false
			}
		}
		return true
	})

	// The founder creates the private group and invites two members.
	founder := nodes[0]
	var room *ppss.Instance
	var roomErr error
	founder.tr.Do(func() { room, roomErr = founder.st.PPSS.CreateGroup("ops") })
	if roomErr != nil {
		t.Fatal(roomErr)
	}
	delivered := make(chan string, 16)
	founder.tr.Do(func() {
		room.OnMessage = func(from ppss.Entry, payload []byte) {
			delivered <- string(payload)
		}
	})

	members := make([]*ppss.Instance, 0, 2)
	for _, m := range nodes[1:3] {
		members = append(members, joinGroup(t, founder, room, m))
	}

	// A member sends a confidential message to the founder over a WCL
	// onion path; retry on path failure (real UDP may drop or time
	// out) until the payload arrives.
	const secret = "meeting moved to pier 7"
	sender, senderInst := nodes[1], members[0]
	deadline := time.Now().Add(45 * time.Second)
	for {
		var sendErr error
		sender.tr.Do(func() {
			sendErr = senderInst.SendTo(founder.st.ID(), []byte(secret), nil)
		})
		if sendErr != nil {
			t.Logf("send not yet possible: %v", sendErr)
		}
		select {
		case got := <-delivered:
			if got != secret {
				t.Fatalf("delivered %q, want %q", got, secret)
			}
			return
		case <-time.After(2 * time.Second):
			if time.Now().After(deadline) {
				t.Fatal("confidential message never reached the founder over real UDP")
			}
		}
	}
}

// joinGroup invites m into room and completes the join handshake,
// retrying the whole exchange on timeout.
func joinGroup(t *testing.T, founder *stackNode, room *ppss.Instance, m *stackNode) *ppss.Instance {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for attempt := 1; ; attempt++ {
		var accr ppss.Accreditation
		var entry ppss.Entry
		var invErr error
		founder.tr.Do(func() { accr, entry, invErr = room.Invite(m.st.ID()) })
		if invErr != nil {
			t.Fatal(invErr)
		}
		type joinRes struct {
			inst *ppss.Instance
			err  error
		}
		ch := make(chan joinRes, 1)
		m.tr.Do(func() {
			m.st.PPSS.Join("ops", accr, entry, func(inst *ppss.Instance, err error) {
				ch <- joinRes{inst, err}
			})
		})
		select {
		case res := <-ch:
			if res.err == nil {
				return res.inst
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %v could not join after %d attempts: %v", m.st.ID(), attempt, res.err)
			}
			t.Logf("join attempt %d for %v: %v (retrying)", attempt, m.st.ID(), res.err)
		case <-time.After(30 * time.Second):
			t.Fatalf("join handshake for %v stalled", m.st.ID())
		}
	}
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
