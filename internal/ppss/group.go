// Package ppss implements the Private Peer Sampling Service (§IV): a
// per-group gossip peer-sampling protocol whose every exchange travels
// over a WCL onion route, so that neither the content of the exchanges
// nor the membership of the group is visible to any third party —
// including the relays and mixes that carry the traffic.
//
// The package covers the full §IV feature set: group creation and
// invitation with signed accreditations, passport issuance and
// verification against a group-key history, private view maintenance
// (entries carry the member's public key and Π helper P-nodes, the
// information a source needs to open a WCL route), leader heartbeats
// with gossip-aggregation-based re-election, and persistent paths (the
// private connection pool) for applications such as T-Chord.
package ppss

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"whisper/internal/crypt"
	"whisper/internal/identity"
	"whisper/internal/wire"
)

// GroupID identifies a private group. It is derived from the group
// name, but knowing an ID does not help an outsider: every message of
// the group is onion-encrypted and passport-guarded.
type GroupID uint64

// GroupIDFromName derives the canonical GroupID for a name.
func GroupIDFromName(name string) GroupID {
	h := sha256.Sum256([]byte("whisper-group:" + name))
	return GroupID(binary.BigEndian.Uint64(h[:8]))
}

func (g GroupID) String() string { return fmt.Sprintf("G%x", uint64(g)) }

// Errors returned by credential verification.
var (
	ErrBadPassport      = errors.New("ppss: invalid passport")
	ErrBadAccreditation = errors.New("ppss: invalid accreditation")
)

// KeyHistory is the ordered list of group public keys, one per epoch.
// Verification accepts signatures from any epoch so that passports
// survive leader re-election (§IV-A).
type KeyHistory struct {
	keys []crypt.PublicKey
}

// NewKeyHistory starts a history at epoch 0 with the initial group key.
func NewKeyHistory(initial crypt.PublicKey) *KeyHistory {
	return &KeyHistory{keys: []crypt.PublicKey{initial}}
}

// Epoch returns the current (latest) epoch number.
func (h *KeyHistory) Epoch() uint32 { return uint32(len(h.keys) - 1) }

// Current returns the latest group public key.
func (h *KeyHistory) Current() crypt.PublicKey { return h.keys[len(h.keys)-1] }

// At returns the key for an epoch, or nil if unknown.
func (h *KeyHistory) At(epoch uint32) crypt.PublicKey {
	if int(epoch) >= len(h.keys) {
		return nil
	}
	return h.keys[epoch]
}

// Append installs the key for the next epoch.
func (h *KeyHistory) Append(pub crypt.PublicKey) { h.keys = append(h.keys, pub) }

// Len returns the number of epochs.
func (h *KeyHistory) Len() int { return len(h.keys) }

// Passport proves group membership: the member's identifier signed with
// the group's private key of some epoch. Nodes ship their passport with
// every intra-group communication; messages with invalid passports are
// silently ignored, which keeps memberships invisible to outsiders.
type Passport struct {
	Member identity.NodeID
	Epoch  uint32
	Sig    []byte
}

func passportBody(group GroupID, member identity.NodeID, epoch uint32) []byte {
	w := wire.NewWriter(32)
	w.String("whisper-passport")
	w.U64(uint64(group))
	w.U64(uint64(member))
	w.U32(epoch)
	return w.Bytes()
}

// IssuePassport signs a passport for member with the group private key
// at the given epoch. Only leaders hold that key.
func IssuePassport(m *crypt.CPUMeter, groupPriv crypt.PrivateKey, group GroupID, member identity.NodeID, epoch uint32) (Passport, error) {
	sig, err := crypt.Sign(m, groupPriv, passportBody(group, member, epoch))
	if err != nil {
		return Passport{}, fmt.Errorf("ppss: issuing passport: %w", err)
	}
	return Passport{Member: member, Epoch: epoch, Sig: sig}, nil
}

// Verify checks the passport against the group key history.
func (p Passport) Verify(m *crypt.CPUMeter, group GroupID, history *KeyHistory) error {
	pub := history.At(p.Epoch)
	if pub == nil {
		return ErrBadPassport
	}
	if crypt.Verify(m, pub, passportBody(group, p.Member, p.Epoch), p.Sig) != nil {
		return ErrBadPassport
	}
	return nil
}

// IsZero reports whether the passport is unset.
func (p Passport) IsZero() bool { return p.Sig == nil }

// encodedSize is the number of bytes encode writes.
func (p Passport) encodedSize() int { return 8 + 4 + 2 + len(p.Sig) }

func (p Passport) encode(w *wire.Writer) {
	w.U64(uint64(p.Member))
	w.U32(p.Epoch)
	w.Bytes16(p.Sig)
}

func decodePassport(r *wire.Reader) Passport {
	var p Passport
	p.Member = identity.NodeID(r.U64())
	p.Epoch = r.U32()
	p.Sig = r.Bytes16()
	return p
}

// Accreditation is the temporary signed invitation a node presents to a
// leader when joining (§IV-A). It is signed with the group key (the
// "invitation manager" variant would use a separate key pair).
type Accreditation struct {
	Group   GroupID
	Invitee identity.NodeID
	Epoch   uint32
	Sig     []byte
}

func accreditationBody(group GroupID, invitee identity.NodeID, epoch uint32) []byte {
	w := wire.NewWriter(32)
	w.String("whisper-accreditation")
	w.U64(uint64(group))
	w.U64(uint64(invitee))
	w.U32(epoch)
	return w.Bytes()
}

// IssueAccreditation signs an invitation for invitee.
func IssueAccreditation(m *crypt.CPUMeter, groupPriv crypt.PrivateKey, group GroupID, invitee identity.NodeID, epoch uint32) (Accreditation, error) {
	sig, err := crypt.Sign(m, groupPriv, accreditationBody(group, invitee, epoch))
	if err != nil {
		return Accreditation{}, fmt.Errorf("ppss: issuing accreditation: %w", err)
	}
	return Accreditation{Group: group, Invitee: invitee, Epoch: epoch, Sig: sig}, nil
}

// Verify checks the accreditation against the key history.
func (a Accreditation) Verify(m *crypt.CPUMeter, history *KeyHistory) error {
	pub := history.At(a.Epoch)
	if pub == nil {
		return ErrBadAccreditation
	}
	if crypt.Verify(m, pub, accreditationBody(a.Group, a.Invitee, a.Epoch), a.Sig) != nil {
		return ErrBadAccreditation
	}
	return nil
}

// encodedSize is the number of bytes encode writes.
func (a Accreditation) encodedSize() int { return 8 + 8 + 4 + 2 + len(a.Sig) }

func (a Accreditation) encode(w *wire.Writer) {
	w.U64(uint64(a.Group))
	w.U64(uint64(a.Invitee))
	w.U32(a.Epoch)
	w.Bytes16(a.Sig)
}

func decodeAccreditation(r *wire.Reader) Accreditation {
	var a Accreditation
	a.Group = GroupID(r.U64())
	a.Invitee = identity.NodeID(r.U64())
	a.Epoch = r.U32()
	a.Sig = r.Bytes16()
	return a
}

// NewGroupKey generates a group key pair (held by leaders) on the
// given crypto suite. bits sizes RSA moduli (identity.DefaultKeyBits
// if zero) and is ignored by fixed-size suites.
func NewGroupKey(suite crypt.SuiteID, bits int) (crypt.PrivateKey, error) {
	if bits == 0 {
		bits = identity.DefaultKeyBits
	}
	key, err := crypt.GenerateKey(suite, bits)
	if err != nil {
		return nil, fmt.Errorf("ppss: generating group key: %w", err)
	}
	return key, nil
}
