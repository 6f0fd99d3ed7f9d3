package crypt

import (
	"crypto/cipher"
	"crypto/sha256"
	"sync"
)

// The caches below exist because the same few objects recur enormously
// often in a run: content keys are reused across every message of a
// group stream (each SealSym/OpenSym used to rebuild the AES cipher
// schedule and GCM tables from scratch), and the node population shares
// a small set of RSA keys that are re-marshaled, re-parsed and
// re-fingerprinted on every gossip exchange. All caches are guarded by
// mutexes so the parallel experiment harness can run simulations
// concurrently, and all are bounded: on overflow a cache is dropped
// wholesale, which is O(1), amortizes to nothing for the steady-state
// working sets seen in practice, and keeps hostile or degenerate
// workloads from growing memory without limit.
const (
	aeadCacheMax = 1 << 12
	keyCacheMax  = 1 << 12
)

var aeadCache = struct {
	sync.Mutex
	m map[[SymKeySize]byte]cipher.AEAD
}{m: make(map[[SymKeySize]byte]cipher.AEAD, 64)}

// cachedGCM returns a memoized AEAD for a (reused) symmetric key.
// One-shot keys — the fresh key sealed into every hybrid onion layer,
// a one-shot send's content key — must not go through here; they would
// only churn the cache (see SealSymOnce).
// Non-standard key sizes bypass the cache.
func cachedGCM(key []byte) (cipher.AEAD, error) {
	if len(key) != SymKeySize {
		return newGCM(key)
	}
	var k [SymKeySize]byte
	copy(k[:], key)
	aeadCache.Lock()
	gcm := aeadCache.m[k]
	aeadCache.Unlock()
	if gcm != nil {
		return gcm, nil
	}
	gcm, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	aeadCache.Lock()
	if len(aeadCache.m) >= aeadCacheMax {
		aeadCache.m = make(map[[SymKeySize]byte]cipher.AEAD, 64)
	}
	aeadCache.m[k] = gcm
	aeadCache.Unlock()
	return gcm, nil
}

// derCache memoizes MarshalPublicKey per key instance (keys are the
// suites' pointer wrapper types, so interface equality is pointer
// equality).
var derCache = struct {
	sync.Mutex
	m map[PublicKey][]byte
}{m: make(map[PublicKey][]byte, 64)}

// parseCache interns UnmarshalPublicKey results by blob bytes, so that
// repeated parses of the same key (every received gossip descriptor)
// return one shared instance instead of allocating a new one — which in
// turn makes the pointer-keyed derCache and fpCache effective on the
// receive path.
var parseCache = struct {
	sync.Mutex
	m map[string]PublicKey
}{m: make(map[string]PublicKey, 64)}

// fpCache memoizes KeyFingerprint per key instance.
var fpCache = struct {
	sync.Mutex
	m map[PublicKey][8]byte
}{m: make(map[PublicKey][8]byte, 64)}

// sha256Pool recycles hash states for OAEP; rsa.EncryptOAEP and
// DecryptOAEP reset the hash before use, so recycled state never leaks
// between operations.
var sha256Pool = sync.Pool{New: func() any { return sha256.New() }}
