// Package tchord implements T-Chord (Montresor, Jelasity and Babaoglu,
// the paper's [15]): a Chord DHT ring constructed in a self-organizing
// way with the T-Man framework, using view exchanges with peers from a
// peer sampling service and with current ring neighbours. In WHISPER it
// runs inside a private group on top of the PPSS (§V-G): every exchange
// and every query travels over a confidential WCL route, and query
// replies come back through a single WCL path using the origin's
// coordinates shipped with the query.
//
// Besides ring construction and greedy lookup routing, the package
// offers the "private index" the paper motivates: a Put/Get key-value
// store whose keys are owned by ring position.
package tchord

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"whisper/internal/identity"
	"whisper/internal/ppss"
)

// ChordID is a position on the 2^64 identifier ring.
type ChordID uint64

// IDOf maps a node identity to its ring position.
func IDOf(n identity.NodeID) ChordID {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(n))
	h := sha256.Sum256(append([]byte("whisper-chord-node:"), b[:]...))
	return ChordID(binary.BigEndian.Uint64(h[:8]))
}

// KeyID maps an application key to its ring position.
func KeyID(key string) ChordID {
	h := sha256.Sum256([]byte("whisper-chord-key:" + key))
	return ChordID(binary.BigEndian.Uint64(h[:8]))
}

// distCW is the clockwise distance from a to b on the ring.
func distCW(a, b ChordID) uint64 { return uint64(b - a) }

// between reports whether x ∈ (a, b] clockwise.
func between(x, a, b ChordID) bool {
	if a == b {
		return true // full circle: a single node owns everything
	}
	return distCW(a, x) <= distCW(a, b) && x != a
}

// peer couples a PPSS entry with its ring position.
type peer struct {
	E   ppss.Entry
	CID ChordID
}

func peerOf(e ppss.Entry) peer { return peer{E: e, CID: IDOf(e.ID)} }

// succRanker ranks by clockwise distance from the base (successor
// candidates); predRanker by counter-clockwise distance.
type succRanker struct{}

func (succRanker) Less(base, x, y peer) bool {
	return distCW(base.CID, x.CID) < distCW(base.CID, y.CID)
}
func (succRanker) Equal(x, y peer) bool { return x.E.ID == y.E.ID }

type predRanker struct{}

func (predRanker) Less(base, x, y peer) bool {
	return distCW(x.CID, base.CID) < distCW(y.CID, base.CID)
}
func (predRanker) Equal(x, y peer) bool { return x.E.ID == y.E.ID }

// fingerLevels is the number of finger-table levels maintained.
const fingerLevels = 64

// Stats counts protocol events: the node bumps them in place and
// Node.Stats returns a copy. The tags name the exported metrics (see
// obs.Register).
type Stats struct {
	ExchangesSent     uint64 `obs:"tchord_exchanges_sent_total"`
	ExchangesReceived uint64 `obs:"tchord_exchanges_received_total"`
	LookupsStarted    uint64 `obs:"tchord_lookups_started_total"`
	LookupsOwned      uint64 `obs:"tchord_lookups_owned_total"` // answered locally
	LookupsForwarded  uint64 `obs:"tchord_lookups_forwarded_total"`
	LookupsAnswered   uint64 `obs:"tchord_lookups_answered_total"` // answered as owner for a remote origin
	LookupsCompleted  uint64 `obs:"tchord_lookups_completed_total"`
	LookupsFailed     uint64 `obs:"tchord_lookups_failed_total"`
	StoresHeld        uint64 `obs:"tchord_stores_held,gauge"`
}

// LookupResult reports a completed lookup.
type LookupResult struct {
	Key   ChordID
	Owner ppss.Entry
	Hops  int
	Value []byte // set for Get lookups when the owner held the key
	Found bool   // for Get: whether the key existed
	Err   error
}

func (r LookupResult) String() string {
	if r.Err != nil {
		return fmt.Sprintf("lookup %x failed: %v", uint64(r.Key), r.Err)
	}
	return fmt.Sprintf("lookup %x → %v in %d hops", uint64(r.Key), r.Owner.ID, r.Hops)
}
