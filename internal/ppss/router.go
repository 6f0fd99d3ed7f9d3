package ppss

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"whisper/internal/crypt"
	"whisper/internal/identity"
	"whisper/internal/obs"
	"whisper/internal/transport"
	"whisper/internal/wcl"
	"whisper/internal/wire"
)

// RouterStats holds node-level PPSS events: the router bumps them in
// place and Router.Stats returns a copy. The tags name the exported
// metrics (see obs.Register).
type RouterStats struct {
	UnknownGroupDrops uint64 `obs:"ppss_unknown_group_drops_total"`
	MalformedDrops    uint64 `obs:"ppss_malformed_drops_total"`
	JoinsSent         uint64 `obs:"ppss_joins_sent_total"`
	JoinsSucceeded    uint64 `obs:"ppss_joins_succeeded_total"`
	JoinsFailed       uint64 `obs:"ppss_joins_failed_total"`
}

// Router owns a node's PPSS state: one Instance per private group the
// node belongs to, demultiplexed from the single WCL receive hook.
// Messages for groups the node is not a member of are dropped silently
// — a node never reveals, even by an error reply, whether it knows a
// group (§IV-A).
type Router struct {
	w   *wcl.WCL
	rt  transport.Transport
	cfg Config

	instances map[GroupID]*Instance
	joins     map[GroupID]*joinWaiter
	// joined counts the instances created on this node: the next
	// instance's metric label.
	joined int

	st RouterStats
}

type joinWaiter struct {
	done  func(*Instance, error)
	timer transport.Timer
}

// NewRouter attaches PPSS routing to a WCL, taking over its OnReceive
// hook. cfg provides the defaults for all instances on this node.
func NewRouter(w *wcl.WCL, cfg Config) *Router {
	cfg = cfg.withDefaults()
	r := &Router{
		w:         w,
		rt:        w.Node().Runtime(),
		cfg:       cfg,
		instances: make(map[GroupID]*Instance),
		joins:     make(map[GroupID]*joinWaiter),
	}
	obs.Register(cfg.Obs, &r.st)
	w.OnReceive = r.handle
	return r
}

// WCL returns the underlying communication layer.
func (r *Router) WCL() *wcl.WCL { return r.w }

// Stats returns a snapshot of the router's counters.
func (r *Router) Stats() RouterStats { return r.st }

// Node ID shorthand.
func (r *Router) id() identity.NodeID { return r.w.Node().ID() }

// cpu returns the node's crypto meter (shared with the WCL, as Table II
// accounts both together).
func (r *Router) cpu() *crypt.CPUMeter { return r.w.CPU() }

// Instances returns the groups this node currently belongs to, in
// GroupID order.
func (r *Router) Instances() []*Instance {
	out := make([]*Instance, 0, len(r.instances))
	for _, g := range slices.Sorted(maps.Keys(r.instances)) {
		out = append(out, r.instances[g])
	}
	return out
}

// Instance returns the instance for a group, or nil.
func (r *Router) Instance(g GroupID) *Instance { return r.instances[g] }

// SelfEntry builds the node's current private-view entry: identity,
// public key, and Π helper P-nodes drawn from the connection backlog
// with their sampled keys (§IV-B).
func (r *Router) SelfEntry() Entry {
	node := r.w.Node()
	d := node.SelfDescriptor()
	e := Entry{
		ID:      d.ID,
		IsPub:   d.Public,
		Contact: d.Contact,
		PubKey:  node.Identity().Public(),
	}
	if !d.Public {
		// Built for every message a member sends: one exactly sized
		// helper slice, no copy of the backlog.
		r.w.Backlog().EachPublic(func(be wcl.BacklogEntry) bool {
			key := node.Keys().Get(be.Desc.ID)
			if key == nil {
				return true
			}
			if e.Helpers == nil {
				e.Helpers = make([]wcl.Helper, 0, r.cfg.MinHelpers)
			}
			e.Helpers = append(e.Helpers, wcl.Helper{ID: be.Desc.ID, Endpoint: be.Desc.Contact, Key: key})
			return len(e.Helpers) < r.cfg.MinHelpers
		})
	}
	return e
}

// CreateGroup makes this node the founding leader of a new group: it
// generates the group key pair and issues itself a passport.
func (r *Router) CreateGroup(name string) (*Instance, error) {
	g := GroupIDFromName(name)
	if r.instances[g] != nil {
		return nil, fmt.Errorf("ppss: already a member of group %q", name)
	}
	groupKey, err := NewGroupKey(r.cfg.Suite, r.cfg.GroupKeyBits)
	if err != nil {
		return nil, err
	}
	history := NewKeyHistory(groupKey.Public())
	passport, err := IssuePassport(r.cpu(), groupKey, g, r.id(), 0)
	if err != nil {
		return nil, err
	}
	inst := newInstance(r, g, name, history, passport)
	inst.groupPriv = groupKey
	inst.leaderID = r.id()
	inst.lastHB = r.rt.Now()
	r.instances[g] = inst
	inst.start()
	return inst, nil
}

// Join requests admission to a group through entryPoint (a leader whose
// coordinates arrived with the invitation), presenting accr. done is
// invoked with the live instance or an error.
func (r *Router) Join(name string, accr Accreditation, entryPoint Entry, done func(*Instance, error)) {
	g := GroupIDFromName(name)
	if g != accr.Group {
		done(nil, fmt.Errorf("ppss: accreditation is for %v, not %q", accr.Group, name))
		return
	}
	if r.instances[g] != nil {
		done(nil, fmt.Errorf("ppss: already a member of %q", name))
		return
	}
	if r.joins[g] != nil {
		done(nil, fmt.Errorf("ppss: join to %q already in progress", name))
		return
	}
	obs.Inc(&r.st.JoinsSent)
	m := joinReq{Group: g, Accr: accr, From: r.SelfEntry()}
	waiter := &joinWaiter{done: done}
	waiter.timer = r.rt.After(r.cfg.JoinTimeout, func() {
		if r.joins[g] == waiter {
			delete(r.joins, g)
			obs.Inc(&r.st.JoinsFailed)
			done(nil, errors.New("ppss: join timed out"))
		}
	})
	r.joins[g] = waiter
	r.w.Send(entryPoint.Dest(), m.encode(r.cfg.KeyBlobSize), func(res wcl.Result) {
		if res.Outcome == wcl.Failed {
			if r.joins[g] == waiter {
				delete(r.joins, g)
				waiter.timer.Cancel()
				obs.Inc(&r.st.JoinsFailed)
				done(nil, fmt.Errorf("ppss: cannot reach entry point: %w", wcl.ErrNoPath))
			}
		}
	})
}

// Leave stops the group instance and forgets its state.
func (r *Router) Leave(g GroupID) {
	if inst := r.instances[g]; inst != nil {
		inst.stop()
		delete(r.instances, g)
	}
}

// Close stops all instances (node shutdown), leaving groups in GroupID
// order.
func (r *Router) Close() {
	for _, g := range slices.Sorted(maps.Keys(r.instances)) {
		r.Leave(g)
	}
	for g, wtr := range r.joins {
		wtr.timer.Cancel()
		delete(r.joins, g)
	}
}

// handle is the WCL receive hook: dispatch by kind and group.
func (r *Router) handle(payload []byte) {
	if len(payload) == 0 {
		return
	}
	rd := wire.NewReader(payload)
	kind := rd.U8()
	switch kind {
	case msgJoinReq:
		m, err := decodeJoinReq(rd, r.cfg.KeyBlobSize)
		if err != nil {
			obs.Inc(&r.st.MalformedDrops)
			return
		}
		if inst := r.instances[m.Group]; inst != nil {
			inst.handleJoinReq(m)
		} else {
			obs.Inc(&r.st.UnknownGroupDrops)
		}
	case msgJoinResp:
		m, err := decodeJoinResp(rd, r.cfg.KeyBlobSize)
		if err != nil {
			obs.Inc(&r.st.MalformedDrops)
			return
		}
		r.completeJoin(m)
	case msgShuffleReq, msgShuffleResp:
		m, err := decodeShuffleMsg(rd, r.cfg.KeyBlobSize)
		if err != nil {
			obs.Inc(&r.st.MalformedDrops)
			return
		}
		inst := r.instances[m.Group]
		if inst == nil {
			obs.Inc(&r.st.UnknownGroupDrops)
			return
		}
		if kind == msgShuffleReq {
			inst.handleShuffleReq(m)
		} else {
			inst.handleShuffleResp(m)
		}
	case msgApp:
		m, err := decodeAppMsg(rd, r.cfg.KeyBlobSize)
		if err != nil {
			obs.Inc(&r.st.MalformedDrops)
			return
		}
		if inst := r.instances[m.Group]; inst != nil {
			inst.handleApp(m)
		} else {
			obs.Inc(&r.st.UnknownGroupDrops)
		}
	case msgPCPPing, msgPCPPong:
		m, err := decodePCPMsg(rd, r.cfg.KeyBlobSize)
		if err != nil {
			obs.Inc(&r.st.MalformedDrops)
			return
		}
		if inst := r.instances[m.Group]; inst != nil {
			inst.handlePCP(kind, m)
		} else {
			obs.Inc(&r.st.UnknownGroupDrops)
		}
	default:
		obs.Inc(&r.st.MalformedDrops)
	}
}

// completeJoin finalizes a pending join with the leader's response.
func (r *Router) completeJoin(m *joinResp) {
	waiter := r.joins[m.Group]
	if waiter == nil {
		return
	}
	delete(r.joins, m.Group)
	waiter.timer.Cancel()
	if m.Passport.IsZero() || len(m.History) == 0 || m.History[0] == nil {
		obs.Inc(&r.st.JoinsFailed)
		waiter.done(nil, errors.New("ppss: malformed join response"))
		return
	}
	history := NewKeyHistory(m.History[0])
	for _, k := range m.History[1:] {
		if k != nil {
			history.Append(k)
		}
	}
	if err := m.Passport.Verify(r.cpu(), m.Group, history); err != nil || m.Passport.Member != r.id() {
		obs.Inc(&r.st.JoinsFailed)
		waiter.done(nil, ErrBadPassport)
		return
	}
	inst := newInstance(r, m.Group, "", history, m.Passport)
	inst.leaderID = m.Leader.ID
	inst.lastHB = r.rt.Now()
	inst.view.Insert(m.Leader, 0)
	for _, e := range m.Entries {
		if e.Val.ID != r.id() {
			inst.view.Insert(e.Val, e.Age)
		}
	}
	r.instances[m.Group] = inst
	inst.start()
	obs.Inc(&r.st.JoinsSucceeded)
	waiter.done(inst, nil)
}
