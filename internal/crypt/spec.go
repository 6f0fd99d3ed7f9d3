package crypt

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"encoding/binary"
	"hash"
	"runtime"
	"sync"
	"time"
)

// Speculative unwrap. In a simulation every node's private key lives in
// this one process, so the moment rsaSeal wraps an onion layer key to
// a public key generated here, the RSA-OAEP decryption its holder will
// later run is already known. rsaSeal queues that decryption and spare
// cores run it while the simulator goes on; rsaOpen then claims the
// result instead of decrypting. Everything else — the AES-GCM open of
// the body actually received, the layer parse, the error paths — runs
// at the open exactly as before.
//
// Virtual behaviour cannot see any of this: OAEP decryption ignores its
// random argument and this package draws nothing from the simulator's
// RNG, so a (private key, RSA block) pair decrypts to the same (key,
// error) wherever and whenever it runs.
//
// Claim rules (rsaOpen):
//   - a job matches only on the exact RSA block and the same
//     *rsa.PrivateKey;
//   - a finished job hands over its result;
//   - a running job is waited for;
//   - a job no drainer has started is taken and decrypted inline: an
//     opener never waits behind the queue.
//
// Bounds: at most specMax jobs are held (each keeps its RSA block and,
// once run, the 32-byte layer key); the oldest is evicted to make room.
// Queued jobs run newest first — an onion's outermost layer, the one
// its first hop opens first, is sealed last. At most GOMAXPROCS−1
// drainer goroutines run them and each exits when nothing is queued, so
// nothing outlives the work. At GOMAXPROCS 1 nothing is queued.
const specMax = 256

const (
	jobQueued uint8 = iota
	jobRunning
	jobDone
)

type unwrapJob struct {
	priv  *rsa.PrivateKey
	block []byte // the RSA-OAEP block as sealed
	slot  int    // its ring slot while held
	state uint8

	key  []byte
	err  error
	took time.Duration // the decryption's own wall time, charged at claim
}

// specCounts tallies what became of speculated jobs.
type specCounts struct {
	Queued, ClaimedDone, ClaimedRunning, Inline, Evicted uint64
}

// spec holds the jobs not yet claimed or evicted: each sits in one ring
// slot and in byBlock under its tag.
var spec struct {
	sync.Mutex
	done     sync.Cond // broadcast whenever a drainer finishes a job
	ring     [specMax]*unwrapJob
	next     int // ring slot the next job takes (the oldest job's, once full)
	byBlock  map[uint64]*unwrapJob
	drainers int // running drainer goroutines
	counts   specCounts
}

func init() {
	spec.done.L = &spec.Mutex
	spec.byBlock = make(map[uint64]*unwrapJob, specMax)
}

// blockTag indexes a job by the tail of its RSA block (OAEP output is
// uniformly distributed); a claim still compares the whole block.
func blockTag(block []byte) uint64 {
	return binary.LittleEndian.Uint64(block[len(block)-8:])
}

// speculate queues the unwrap of block by priv for a spare core.
func speculate(priv *rsa.PrivateKey, block []byte) {
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 || len(block) < 8 {
		return
	}
	spec.Lock()
	start := push(priv, block) && spec.drainers < procs-1
	if start {
		spec.drainers++
	}
	spec.Unlock()
	if start {
		go drain()
	}
}

// push holds a queued job for block, evicting the oldest job when the
// ring is full. It reports false (and holds nothing) when a job with
// the same tag is already held. spec must be locked.
func push(priv *rsa.PrivateKey, block []byte) bool {
	tag := blockTag(block)
	if _, taken := spec.byBlock[tag]; taken {
		return false
	}
	if old := spec.ring[spec.next]; old != nil {
		delete(spec.byBlock, blockTag(old.block))
		spec.counts.Evicted++
	}
	j := &unwrapJob{priv: priv, block: block, slot: spec.next}
	spec.ring[spec.next] = j
	spec.byBlock[tag] = j
	spec.next = (spec.next + 1) % specMax
	spec.counts.Queued++
	return true
}

// startNewest marks the most recently sealed job no one has started as
// running and returns it, or nil when nothing is queued. spec must be
// locked.
func startNewest() *unwrapJob {
	for i := 1; i <= specMax; i++ {
		j := spec.ring[(spec.next-i+specMax)%specMax]
		if j != nil && j.state == jobQueued {
			j.state = jobRunning
			return j
		}
	}
	return nil
}

// drain runs queued jobs, newest first, until none is left.
func drain() {
	h := sha256Pool.Get().(hash.Hash)
	defer sha256Pool.Put(h)
	for {
		spec.Lock()
		j := startNewest()
		if j == nil {
			spec.drainers--
			spec.Unlock()
			return
		}
		spec.Unlock()
		runJob(j, h)
	}
}

// runJob decrypts a started job and wakes whoever waits for it.
func runJob(j *unwrapJob, h hash.Hash) {
	key, took, err := decrypt(h, j.priv, j.block)
	spec.Lock()
	j.key, j.err, j.took, j.state = key, err, took, jobDone
	spec.done.Broadcast()
	spec.Unlock()
}

// decrypt unwraps block with priv and times the decryption.
func decrypt(h hash.Hash, priv *rsa.PrivateKey, block []byte) ([]byte, time.Duration, error) {
	start := time.Now()
	key, err := rsa.DecryptOAEP(h, rand.Reader, priv, block, nil)
	return key, time.Since(start), err
}

// claim returns the finished speculative unwrap of block by priv,
// waiting for it if a drainer is running it. It returns nil when there
// is no matching job or the job had not started; the caller then
// decrypts inline.
func claim(priv *rsa.PrivateKey, block []byte) *unwrapJob {
	if len(block) < 8 {
		return nil
	}
	tag := blockTag(block)
	spec.Lock()
	defer spec.Unlock()
	j := spec.byBlock[tag]
	if j == nil || j.priv != priv || !bytes.Equal(j.block, block) {
		return nil
	}
	delete(spec.byBlock, tag)
	spec.ring[j.slot] = nil
	switch j.state {
	case jobQueued:
		spec.counts.Inline++
		return nil
	case jobRunning:
		spec.counts.ClaimedRunning++
		for j.state != jobDone {
			spec.done.Wait()
		}
	default:
		spec.counts.ClaimedDone++
	}
	return j
}

// unwrap RSA-OAEP-decrypts one layer key, from a speculative result
// when one matches, and reports the decryption's own wall time.
func unwrap(priv *rsa.PrivateKey, block []byte) ([]byte, time.Duration, error) {
	if j := claim(priv, block); j != nil {
		return j.key, j.took, j.err
	}
	h := sha256Pool.Get().(hash.Hash)
	defer sha256Pool.Put(h)
	return decrypt(h, priv, block)
}
