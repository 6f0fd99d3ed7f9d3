package ppss

import (
	"crypto/sha256"
	"encoding/binary"

	"whisper/internal/crypt"
	"whisper/internal/identity"
	"whisper/internal/obs"
	"whisper/internal/pss"
	"whisper/internal/wire"
)

// Leader election (§IV-A): when leader heartbeats stop arriving, each
// member proposes a value derived from its identifier; a gossip-based
// aggregation of the maximum (Jelasity et al., the paper's [8])
// converges in a few cycles, after which the winner generates and
// announces a new group key, signed by its identity, that members
// append to their key history.

// proposalValue derives the election value for a member. Hashing makes
// the winner effectively random rather than the numerically largest ID.
func proposalValue(g GroupID, id identity.NodeID) uint64 {
	w := wire.NewWriter(24)
	w.String("whisper-election")
	w.U64(uint64(g))
	w.U64(uint64(id))
	h := sha256.Sum256(w.Bytes())
	v := binary.BigEndian.Uint64(h[:8])
	if v == 0 {
		v = 1 // zero means "no election" on the wire
	}
	return v
}

// extras assembles the piggybacked liveness/election state for an
// outgoing shuffle, plus the application digests travelling with the
// shipped entries.
func (in *Instance) extras(shipped []pss.Entry[Entry]) extras {
	x := extras{Epoch: in.history.Epoch(), Digests: in.digestsFor(shipped)}
	if in.IsLeader() {
		in.lastHB = in.rt.Now()
		x.HBAge = 0
	} else {
		x.HBAge = in.rt.Now() - in.lastHB
	}
	if in.election != nil {
		x.Proposal = in.election.proposal
		p := in.election.proposer
		x.Proposer = &p
	}
	if in.announce != nil && in.rt.Now()-in.announced < in.cfg.AnnounceFor {
		x.Announce = in.announce
	}
	return x
}

// absorbExtras merges a peer's liveness/election state.
func (in *Instance) absorbExtras(x extras) {
	// Key announcements advance the epoch.
	if x.Announce != nil {
		in.acceptAnnounce(x.Announce)
	}
	// Heartbeat freshness propagates epidemically: the peer heard from
	// the leader x.HBAge ago.
	theirHB := in.rt.Now() - x.HBAge
	if theirHB > in.lastHB {
		in.lastHB = theirHB
		// Fresh leader signal cancels a pending election.
		if in.election != nil && in.rt.Now()-in.lastHB < in.cfg.HeartbeatTimeout/2 {
			in.election = nil
		}
	}
	// Aggregation of the maximum proposal.
	if x.Proposal != 0 && x.Proposer != nil {
		if in.election == nil {
			// Join an election already in progress.
			if in.rt.Now()-in.lastHB > in.cfg.HeartbeatTimeout/2 {
				in.election = &electionState{
					started:    in.rt.Now(),
					lastChange: in.rt.Now(),
					proposal:   proposalValue(in.grp, in.r.id()),
					proposer:   in.r.SelfEntry(),
				}
				obs.Inc(&in.st.ElectionsStarted)
			}
		}
		if in.election != nil && x.Proposal > in.election.proposal {
			in.election.proposal = x.Proposal
			in.election.proposer = *x.Proposer
			in.election.lastChange = in.rt.Now()
		}
	}
}

// tickElection runs once per PPSS cycle: start an election when the
// leader went silent, resolve it after the aggregation window.
func (in *Instance) tickElection() {
	now := in.rt.Now()
	if in.IsLeader() {
		in.lastHB = now
		return
	}
	if in.election == nil {
		if now-in.lastHB > in.cfg.HeartbeatTimeout {
			in.election = &electionState{
				started:    now,
				lastChange: now,
				proposal:   proposalValue(in.grp, in.r.id()),
				proposer:   in.r.SelfEntry(),
			}
			obs.Inc(&in.st.ElectionsStarted)
		}
		return
	}
	// Resolve only once the aggregation window has passed AND the
	// maximum has been stable for the second half of the window —
	// otherwise a node that has not yet heard the true maximum would
	// elect itself.
	if now-in.election.started < in.cfg.ElectionDuration ||
		now-in.election.lastChange < in.cfg.ElectionDuration/2 {
		return
	}
	won := in.election.proposer.ID == in.r.id()
	in.election = nil
	if !won {
		// Wait for the winner's announcement; if it never comes, the
		// heartbeat stays stale and a new election will trigger.
		in.lastHB = now - in.cfg.HeartbeatTimeout/2
		return
	}
	in.becomeLeader()
}

// becomeLeader generates the next-epoch group key, self-issues a
// passport and starts announcing the new key.
func (in *Instance) becomeLeader() {
	newKey, err := NewGroupKey(in.cfg.Suite, in.cfg.GroupKeyBits)
	if err != nil {
		return
	}
	newEpoch := in.history.Epoch() + 1
	sig, err := crypt.Sign(in.r.cpu(), in.r.w.Node().Identity().Key,
		announceBody(in.grp, newEpoch, newKey.Public()))
	if err != nil {
		return
	}
	ann := &keyAnnounce{
		Epoch:     newEpoch,
		NewKey:    newKey.Public(),
		Leader:    in.passport, // old-epoch passport proves membership
		LeaderKey: in.r.w.Node().Identity().Public(),
		Sig:       sig,
	}
	in.history.Append(newKey.Public())
	in.groupPriv = newKey
	in.leaderID = in.r.id()
	in.lastHB = in.rt.Now()
	in.announce = ann
	in.announced = in.rt.Now()
	obs.Inc(&in.st.BecameLeader)
	// Re-issue own passport under the new epoch.
	if p, err := IssuePassport(in.r.cpu(), newKey, in.grp, in.r.id(), newEpoch); err == nil {
		in.passport = p
	}
}

// acceptAnnounce verifies and installs a new group key: the announcer
// must hold a valid passport for a known epoch and the announcement
// must be signed by the key it claims as its identity. (Within the
// paper's honest-but-curious threat model members do not forge
// announcements; Byzantine resistance would require the complementary
// mechanisms surveyed in §VI.)
func (in *Instance) acceptAnnounce(a *keyAnnounce) {
	if a.Epoch != in.history.Epoch()+1 || a.NewKey == nil || a.LeaderKey == nil {
		return
	}
	if a.Leader.Verify(in.r.cpu(), in.grp, in.history) != nil {
		obs.Inc(&in.st.BadPassports)
		return
	}
	if crypt.Verify(in.r.cpu(), a.LeaderKey, announceBody(in.grp, a.Epoch, a.NewKey), a.Sig) != nil {
		obs.Inc(&in.st.BadPassports)
		return
	}
	in.history.Append(a.NewKey)
	in.leaderID = a.Leader.Member
	in.lastHB = in.rt.Now()
	in.election = nil
	in.announce = a // keep spreading it
	in.announced = in.rt.Now()
	obs.Inc(&in.st.AnnouncesAccepted)
}
