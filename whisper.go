// Package whisper is a fully decentralized middleware for confidential
// group communication in large-scale, NAT-constrained networks — a
// from-scratch Go reproduction of "WHISPER: Middleware for Confidential
// Communication in Large-Scale Networks" (Schiavoni, Rivière, Felber;
// ICDCS 2011).
//
// WHISPER provides two guarantees against honest-but-curious observers,
// without any trusted third party or dedicated infrastructure:
//
//   - content privacy: messages exchanged between the members of a
//     private group are visible only to their source and destination;
//   - membership privacy: no third party — including the relays that
//     carry traffic across NATs and the mixes on onion paths — can tell
//     that two nodes belong to the same group, or that the group exists.
//
// The stack combines a NAT-resilient gossip peer sampling service
// (Nylon), a communication layer building four-node onion routes from a
// backlog of warm NAT-traversal associations (WCL), and a private
// peer sampling service running per-group gossip entirely over such
// routes (PPSS). A T-Man/T-Chord layer on top builds a private DHT
// inside a group, the paper's flagship application.
//
// The package runs nodes on a deterministic emulated network (virtual
// time, packet-level NAT emulation), which is how the paper's entire
// evaluation is reproduced; see the examples directory and the
// whisper-exp command.
package whisper

import (
	"fmt"
	"time"

	"whisper/internal/identity"
	"whisper/internal/netem"
	"whisper/internal/nylon"
	"whisper/internal/ppss"
	"whisper/internal/sim"
	"whisper/internal/wcl"
)

// NodeID identifies a node.
type NodeID = identity.NodeID

// Options configures an emulated WHISPER network.
type Options struct {
	// Nodes is the network size (default 100).
	Nodes int
	// NATRatio is the fraction of nodes behind NAT devices, split
	// evenly across the four emulated types (default 0.7, the paper's
	// real-world figure).
	NATRatio float64
	// Seed makes runs reproducible (default 1).
	Seed int64
	// WAN switches the latency model from the 1 Gbps cluster to the
	// PlanetLab-like wide-area model.
	WAN bool
	// PSSCycle is the base gossip period (default 10 s).
	PSSCycle time.Duration
	// GroupCycle is the private gossip period (default 1 min).
	GroupCycle time.Duration
	// Pi is Π, the P-node redundancy level for views, backlogs and
	// helper sets (default 3).
	Pi int
	// KeyBits sizes RSA keys (default 1024, as in the paper's era; the
	// emulation pads keys to 1 KB on the wire either way).
	KeyBits int
	// KeyPoolSize bounds distinct RSA keys generated for large
	// networks (default 64; see identity.Pool for the trade-off).
	KeyPoolSize int
}

func (o Options) withDefaults() Options {
	if o.Nodes == 0 {
		o.Nodes = 100
	}
	if o.NATRatio == 0 {
		o.NATRatio = 0.7
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Pi == 0 {
		o.Pi = 3
	}
	if o.KeyPoolSize == 0 {
		o.KeyPoolSize = 64
	}
	return o
}

// Network is an emulated WHISPER deployment: a population of nodes on a
// virtual-time network with NAT devices, running the full stack.
type Network struct {
	w    *sim.World
	opts Options
}

// NewNetwork builds the population (this generates RSA keys; first call
// takes a few seconds) but starts no gossip until Run is called.
func NewNetwork(opts Options) (*Network, error) {
	opts = opts.withDefaults()
	model := netem.LatencyModel(netem.Cluster{})
	if opts.WAN {
		model = netem.DefaultPlanetLab()
	}
	pool, err := identity.NewPool(opts.KeyPoolSize, opts.KeyBits)
	if err != nil {
		return nil, err
	}
	w, err := sim.NewWorld(sim.Options{
		Seed:     opts.Seed,
		N:        opts.Nodes,
		NATRatio: opts.NATRatio,
		Model:    model,
		KeyPool:  pool,
		Nylon:    nylon.Config{Cycle: opts.PSSCycle, MinPublic: opts.Pi},
		WCL:      &wcl.Config{MinPublic: opts.Pi},
		PPSS:     &ppss.Config{Cycle: opts.GroupCycle, MinHelpers: opts.Pi},
	})
	if err != nil {
		return nil, err
	}
	w.StartAll()
	return &Network{w: w, opts: opts}, nil
}

// Run advances the emulation by d of virtual time.
func (n *Network) Run(d time.Duration) { n.w.Sim.RunFor(d) }

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.w.Sim.Now() }

// Nodes returns all live nodes.
func (n *Network) Nodes() []*Node {
	live := n.w.Live()
	out := make([]*Node, len(live))
	for i, sn := range live {
		out[i] = &Node{net: n, sn: sn}
	}
	return out
}

// Node returns the live node with the given ID, or nil.
func (n *Network) Node(id NodeID) *Node {
	sn := n.w.Get(id)
	if sn == nil {
		return nil
	}
	return &Node{net: n, sn: sn}
}

// AddNode spawns a fresh node (a churn arrival) and starts it.
func (n *Network) AddNode() *Node {
	sn := n.w.Spawn()
	sn.Nylon.Start()
	return &Node{net: n, sn: sn}
}

// Node is one WHISPER participant.
type Node struct {
	net *Network
	sn  *sim.Node
}

// ID returns the node identifier.
func (n *Node) ID() NodeID { return n.sn.ID() }

// Public reports whether the node is publicly reachable (a P-node) or
// behind a NAT (an N-node).
func (n *Node) Public() bool { return n.sn.Public() }

// NATType describes the node's NAT device ("public" for P-nodes).
func (n *Node) NATType() string { return n.sn.Type.String() }

// Leave stops the node abruptly (crash-stop churn departure).
func (n *Node) Leave() { n.net.w.Kill(n.sn) }

// Bandwidth returns the node's total upload and download in bytes.
func (n *Node) Bandwidth() (up, down uint64) {
	s := n.sn.Nylon.Meter().Snapshot()
	return s.UpBytes, s.DownBytes
}

// CreateGroup makes this node the founding leader of a new private
// group (it generates the group key pair and a passport for itself).
func (n *Node) CreateGroup(name string) (*Group, error) {
	if n.sn.PPSS == nil {
		return nil, fmt.Errorf("whisper: node %v has no PPSS", n.ID())
	}
	inst, err := n.sn.PPSS.CreateGroup(name)
	if err != nil {
		return nil, err
	}
	return &Group{node: n, name: name, inst: inst}, nil
}

// Join requests admission to the group named in the invitation. The
// callback fires with the joined group or an error; run the network to
// let the handshake complete.
func (n *Node) Join(inv Invitation, done func(*Group, error)) {
	n.sn.PPSS.Join(inv.group, inv.accr, inv.entry, func(inst *ppss.Instance, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		done(&Group{node: n, name: inv.group, inst: inst}, nil)
	})
}
