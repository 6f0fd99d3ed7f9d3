package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"whisper/internal/identity"
	"whisper/internal/nat"
	"whisper/internal/netem"
	"whisper/internal/obs"
	"whisper/internal/ppss"
	"whisper/internal/simnet"
	simtr "whisper/internal/transport/simnet"
	"whisper/internal/transport/udp"
	"whisper/internal/wcl"
)

func testEnv() (*simnet.Sim, *netem.Network, *simtr.Transport) {
	s := simnet.New(1)
	nw := netem.New(s, netem.Fixed{})
	return s, nw, simtr.New(s, nw)
}

func TestStackPSSOnly(t *testing.T) {
	_, _, rt := testEnv()
	ident := identity.TestPool(4).Identity(1)
	st, err := NewStack(rt, ident, nat.None, netem.Endpoint{IP: 5, Port: 1}, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st.WCL != nil || st.PPSS != nil {
		t.Fatal("upper layers attached without being configured")
	}
	if st.ID() != 1 {
		t.Fatalf("ID = %v", st.ID())
	}
	st.Start()
	st.Stop()
	if !st.Nylon.Stopped() {
		t.Fatal("Stop did not stop the node")
	}
}

func TestStackWCLImpliesKeySampling(t *testing.T) {
	_, _, rt := testEnv()
	ident := identity.TestPool(4).Identity(2)
	st, err := NewStack(rt, ident, nat.None, netem.Endpoint{IP: 6, Port: 1}, nil,
		Config{WCL: &wcl.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	if st.WCL == nil {
		t.Fatal("WCL not attached")
	}
	if !st.Nylon.Config().KeySampling {
		t.Fatal("key sampling not forced on for WCL")
	}
}

func TestStackPPSSImpliesWCL(t *testing.T) {
	_, _, rt := testEnv()
	ident := identity.TestPool(4).Identity(3)
	st, err := NewStack(rt, ident, nat.None, netem.Endpoint{IP: 7, Port: 1}, nil,
		Config{PPSS: &ppss.Config{KeyBlobSize: 128}})
	if err != nil {
		t.Fatal(err)
	}
	if st.WCL == nil || st.PPSS == nil {
		t.Fatal("PPSS config must imply the WCL layer")
	}
	// Stopping also closes group instances.
	if _, err := st.PPSS.CreateGroup("g"); err != nil {
		t.Fatal(err)
	}
	st.Stop()
	if len(st.PPSS.Instances()) != 0 {
		t.Fatal("Stop left group instances running")
	}
}

// TestStackMetricsCarryNoGroupID: an observed node's exposition — what
// whisper-node serves on /metrics — labels each group instance by the
// node's join ordinal, so a scrape does not say which groups the node
// is in.
func TestStackMetricsCarryNoGroupID(t *testing.T) {
	_, _, rt := testEnv()
	reg := obs.NewRegistry()
	ident := identity.TestPool(4).Identity(4)
	st, err := NewStack(rt, ident, nat.None, netem.Endpoint{IP: 8, Port: 1}, nil,
		Config{PPSS: &ppss.Config{KeyBlobSize: 128}, Obs: reg.Scope("node", "n4")})
	if err != nil {
		t.Fatal(err)
	}
	var ids []ppss.GroupID
	for _, name := range []string{"alpha", "beta"} {
		in, err := st.PPSS.CreateGroup(name)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, in.Group())
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	text := buf.String()
	for _, g := range ids {
		for _, form := range []string{g.String(), fmt.Sprintf("%x", uint64(g)), fmt.Sprint(uint64(g))} {
			if strings.Contains(text, form) {
				t.Fatalf("the exposition names group %v (as %q)", g, form)
			}
		}
	}
	for _, label := range []string{`group="0"`, `group="1"`} {
		if !strings.Contains(text, label) {
			t.Fatalf("no instrument labelled %s in the exposition", label)
		}
	}
}

func TestStackNATtedNode(t *testing.T) {
	sim, nw, rt := testEnv()
	ident := identity.TestPool(4).Identity(4)
	dev := nat.NewDevice(nw, nat.FullCone, 8, 0)
	st, err := NewStack(rt, ident, nat.FullCone,
		netem.Endpoint{IP: netem.PrivateBase + 1, Port: 1}, dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Nylon.Public() {
		t.Fatal("NATted node claims to be public")
	}
	st.Start()
	sim.RunUntil(time.Minute)
	st.Stop()
}

// The config-validation rules are transport-independent; run them over
// the real-UDP transport too, proving stack assembly is not bound to
// the emulator.

func testUDP(t *testing.T) *udp.Transport {
	t.Helper()
	tr, err := udp.New("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	return tr
}

func TestStackPPSSImpliesWCLOverUDP(t *testing.T) {
	tr := testUDP(t)
	ident := identity.TestPool(4).Identity(3)
	st, err := NewStack(tr, ident, nat.None, netem.Endpoint{IP: 7, Port: 1}, nil,
		Config{PPSS: &ppss.Config{KeyBlobSize: 128}})
	if err != nil {
		t.Fatal(err)
	}
	if st.WCL == nil || st.PPSS == nil {
		t.Fatal("PPSS config must imply the WCL layer")
	}
	if !st.Nylon.Config().KeySampling {
		t.Fatal("key sampling not forced on under the UDP transport")
	}
	st.Stop()
}

func TestStackWCLImpliesKeySamplingOverUDP(t *testing.T) {
	tr := testUDP(t)
	ident := identity.TestPool(4).Identity(2)
	st, err := NewStack(tr, ident, nat.None, netem.Endpoint{IP: 6, Port: 1}, nil,
		Config{WCL: &wcl.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	if st.WCL == nil {
		t.Fatal("WCL not attached")
	}
	if !st.Nylon.Config().KeySampling {
		t.Fatal("key sampling not forced on for WCL")
	}
	st.Stop()
}

func TestStackPSSOnlyOverUDP(t *testing.T) {
	tr := testUDP(t)
	ident := identity.TestPool(4).Identity(1)
	st, err := NewStack(tr, ident, nat.None, netem.Endpoint{IP: 5, Port: 1}, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st.WCL != nil || st.PPSS != nil {
		t.Fatal("upper layers attached without being configured")
	}
	tr.Start()
	tr.Do(st.Start)
	tr.Do(st.Stop)
	if !st.Nylon.Stopped() {
		t.Fatal("Stop did not stop the node")
	}
}
