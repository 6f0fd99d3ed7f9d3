package ppss

import (
	"testing"

	"whisper/internal/identity"
)

// appFrom encodes an application message from member as the router
// receives it.
func appFrom(t *testing.T, r *Router, inst *Instance, p Passport, member identity.NodeID) []byte {
	t.Helper()
	m := appMsg{Group: inst.Group(), Passport: p, From: Entry{ID: member}, Payload: []byte("hello")}
	return m.encode(r.cfg.KeyBlobSize)
}

// TestPassportVerifiedOncePerMember: a member's passport costs one
// signature verification however many messages it ships with.
func TestPassportVerifiedOncePerMember(t *testing.T) {
	r := newBareRouter(t)
	inst, err := r.CreateGroup("cache")
	if err != nil {
		t.Fatal(err)
	}
	p, err := IssuePassport(nil, inst.groupPriv, inst.Group(), 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := r.cpu().Verifys
	for i := 0; i < 100; i++ {
		r.handle(appFrom(t, r, inst, p, 42))
	}
	if got := inst.Stats().AppDelivered; got != 100 {
		t.Fatalf("AppDelivered = %d, want 100", got)
	}
	if got := r.cpu().Verifys - before; got != 1 {
		t.Fatalf("%d signature verifications for 100 messages of one member, want 1", got)
	}
}

// TestForgedPassportForCachedMemberRejected: remembering that member
// 42's passport verified must not let any other signature for member 42
// through, and a rejected forgery must not displace the genuine entry.
func TestForgedPassportForCachedMemberRejected(t *testing.T) {
	r := newBareRouter(t)
	inst, err := r.CreateGroup("cache")
	if err != nil {
		t.Fatal(err)
	}
	p, err := IssuePassport(nil, inst.groupPriv, inst.Group(), 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.handle(appFrom(t, r, inst, p, 42)) // genuine: verified and remembered

	forged := Passport{Member: 42, Epoch: 0, Sig: append([]byte(nil), p.Sig...)}
	forged.Sig[len(forged.Sig)-1] ^= 1
	truncated := Passport{Member: 42, Epoch: 0, Sig: p.Sig[:len(p.Sig)-1]}
	for _, bad := range []Passport{forged, truncated, {Member: 42, Epoch: 0}} {
		delivered, rejected := inst.Stats().AppDelivered, inst.Stats().BadPassports
		r.handle(appFrom(t, r, inst, bad, 42))
		if inst.Stats().AppDelivered != delivered || inst.Stats().BadPassports != rejected+1 {
			t.Fatalf("forged passport (sig %d bytes) accepted for a cached member", len(bad.Sig))
		}
	}
	// The genuine passport is still recognized without a new verification.
	before := r.cpu().Verifys
	r.handle(appFrom(t, r, inst, p, 42))
	if inst.Stats().AppDelivered != 2 {
		t.Fatal("genuine passport rejected after forgeries")
	}
	if got := r.cpu().Verifys - before; got != 0 {
		t.Fatalf("forgery evicted the genuine entry: %d re-verifications", got)
	}
}

// TestPassportNewEpochReverifies: an entry is bound to its epoch. The
// same member presenting a passport of a later epoch is verified in
// full, under that epoch's key.
func TestPassportNewEpochReverifies(t *testing.T) {
	r := newBareRouter(t)
	inst, err := r.CreateGroup("cache")
	if err != nil {
		t.Fatal(err)
	}
	old, err := IssuePassport(nil, inst.groupPriv, inst.Group(), 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.handle(appFrom(t, r, inst, old, 42))

	next := identity.TestKeys(2)[1]
	inst.history.Append(next.Public())
	renewed, err := IssuePassport(nil, next, inst.Group(), 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := r.cpu().Verifys
	r.handle(appFrom(t, r, inst, renewed, 42))
	if got := r.cpu().Verifys - before; got != 1 {
		t.Fatalf("epoch-1 passport took %d verifications, want 1", got)
	}
	// The old signature relabelled as epoch 1 must fail under the new key.
	relabelled := Passport{Member: 42, Epoch: 1, Sig: old.Sig}
	rejected := inst.Stats().BadPassports
	r.handle(appFrom(t, r, inst, relabelled, 42))
	if inst.Stats().BadPassports != rejected+1 {
		t.Fatal("epoch-0 signature accepted as an epoch-1 passport")
	}
	if inst.Stats().AppDelivered != 2 {
		t.Fatalf("AppDelivered = %d, want 2", inst.Stats().AppDelivered)
	}
}

// TestVerifiedPassportTableBounded: more members than slots only costs
// re-verification; the table never grows and every member is served.
func TestVerifiedPassportTableBounded(t *testing.T) {
	r := newBareRouter(t)
	inst, err := r.CreateGroup("cache")
	if err != nil {
		t.Fatal(err)
	}
	const members = 4 * verifiedPassports
	for round := 0; round < 2; round++ {
		for i := 0; i < members; i++ {
			id := identity.NodeID(1000 + i)
			p, err := IssuePassport(nil, inst.groupPriv, inst.Group(), id, 0)
			if err != nil {
				t.Fatal(err)
			}
			r.handle(appFrom(t, r, inst, p, id))
		}
	}
	if got := inst.Stats().AppDelivered; got != 2*members {
		t.Fatalf("AppDelivered = %d, want %d", got, 2*members)
	}
	if len(inst.verified) != verifiedPassports {
		t.Fatalf("table holds %d entries, want %d", len(inst.verified), verifiedPassports)
	}
	used := 0
	for i := range inst.verified {
		if inst.verified[i].key != nil {
			used++
		}
	}
	if used < verifiedPassports/2 {
		t.Fatalf("only %d of %d slots used by %d members: the member hash does not spread", used, verifiedPassports, members)
	}
}
