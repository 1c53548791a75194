package explore

import (
	"sync"

	"weakestfd/internal/sim"
)

// State-hash join cache for the source-DPOR engine: when two explored
// prefixes of one (pattern, oracle) configuration commute into the same
// state at the branch horizon, the tail beyond the horizon — which branches
// no further and runs under the deterministic fair round-robin — is executed
// once and reused.
//
// Soundness. A join key is taken at step depth h = Config.MaxDepth, only
// when h < Budget (a fair tail exists), and is composed of:
//
//   - the access log's state digest (sim.AccessLog.StateDigest): every
//     shared object's current-value fingerprint plus every process's rolling
//     observation hash, whose per-step marker makes it a per-process program
//     counter. Equal digests mean (up to 64-bit collisions) identical shared
//     state and identical machine local states, because a machine's local
//     state is a deterministic function of its observation sequence. The
//     detector histories are shared objects of the digest too: each flip at
//     or before h writes its history object with the post-flip output's
//     fingerprint (sim.QuerySeam.OnStep), so the digest already holds what a
//     query at h observes. The environment's own history-object accesses
//     (flip writes and boundary-guard reads) are sealed out of the
//     observation hashes (sim.AccessLog.SealEnv): they are charged to
//     whichever step runs at the flip's absolute time, not observed by it;
//   - the round-robin rotation state entering the tail (the last granted
//     PID, or fresh when the forced prefix covered the whole horizon), so
//     identical states continued by differently-rotated fair tails are
//     never identified;
//   - a fingerprint of the forced prefix's not-yet-executed suffix, when the
//     wakeup sequence extends past the horizon: those grants override the
//     fair tail, so two runs may join only when they agree on the pending
//     grants too.
//
// The probe that takes the key is the digest's only reader: it runs once
// per run, at t = h, and stops the log's digest maintenance
// (sim.AccessLog.StopDigest) until the next run's Reset, so the steps past
// the horizon record their accesses without fingerprinting their writes.
//
// Both runs are at the same global time (t = h: time advances one per step),
// the crash pattern fires at absolute times, and the flips still pending
// after h fire at absolute times fixed by the configuration — the same for
// every run sharing the cache — so equal keys imply the continuations are
// *identical runs*, step for step — not merely equivalent. The joiner
// therefore stops executing at h, counts the cached tail's step and
// settledness facts, and skips property checking: the first visitor checked
// the identical run, and the explorer deduplicates violations per (pattern,
// oracle, property), so a joiner's checks can contribute nothing the first
// visitor's did not. Its race analysis reads the cached tail's access trace
// into the log one step at a time, and stops where the saturation rule of
// source.go shows that no later race reaches a branch node: every process
// that steps again has a vector clock dominating the branch nodes' steps.
// Each entry keeps every process's last step index in its tail for that
// rule. No tail grant is ever read — the stack ends at the horizon, and only
// executed runs hand their schedule to the shrinker — so the cache keeps
// none.
//
// The cache is bounded by Config.MaxStates entries per configuration; once
// full it stops admitting new states (Result.StateCapped) but keeps probing
// existing ones — joins degrade, coverage does not. Caches are recycled
// across configurations through a sync.Pool: an extract-omega configuration
// caches ~75 tails of ~750 steps, and a recycled cache keeps its map's and
// arenas' capacity.

// joinKey identifies a state at the branch horizon.
type joinKey struct {
	digest  uint64
	pending uint64 // pidSeqFP of forced-prefix grants past the horizon, 0 none
	rr      int16  // RR rotation entering the tail: last granted PID, -1 fresh
}

// pidSeqFP fingerprints a grant sequence (FNV-1a over PID+1 so a leading
// PID 0 is distinguishable from the empty sequence's 0).
func pidSeqFP(pids []sim.PID) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, p := range pids {
		h = (h ^ uint64(p+1)) * 0x100000001b3
	}
	return h
}

// joinEntry is the reusable continuation of a state: where its tail's
// access trace sits in the cache's arenas, and the run facts the joiner
// reports instead of measuring.
type joinEntry struct {
	tail, tailEnd int32 // the tail's steps: tailPID/tailAccEnd[tail:tailEnd]
	accs          int32 // where the first tail step's accesses start
	// last[p] is the run's index of p's last step in the tail, -1 when p
	// takes none there.
	last    [dporMaxProcs]int32
	steps   int64
	settled bool
}

// joinCache maps horizon states to their continuations for one
// configuration's search (single-goroutine access; no locking). The tails
// live in flat arenas shared by every entry, so caching a tail copies it
// without allocating per step: tail step i is process tailPID[i] and its
// accesses end at accs[tailAccEnd[i]] (they start where step i−1's end,
// or at the entry's accs for its first step).
type joinCache struct {
	max    int
	m      map[joinKey]joinEntry
	capped bool

	tailPID    []sim.PID
	tailAccEnd []int32
	accs       []sim.Access
}

// joinCaches holds the caches of finished searches for the next ones.
var joinCaches = sync.Pool{New: func() any {
	return &joinCache{m: make(map[joinKey]joinEntry)}
}}

// newJoinCache returns an empty cache admitting max entries, recycled from
// an earlier search when the pool has one.
func newJoinCache(max int) *joinCache {
	c := joinCaches.Get().(*joinCache)
	clear(c.m)
	c.max, c.capped = max, false
	c.tailPID, c.tailAccEnd, c.accs = c.tailPID[:0], c.tailAccEnd[:0], c.accs[:0]
	return c
}

// release hands the cache back to the pool once its search has ended; the
// caller must not use it afterwards.
func (c *joinCache) release() {
	joinCaches.Put(c)
}

// get returns the cached continuation for key, reporting whether it exists.
func (c *joinCache) get(key joinKey) (joinEntry, bool) {
	ent, ok := c.m[key]
	return ent, ok
}

// put records a continuation: the tail portion of the log (steps from
// horizon on), copied into the arenas, and from last, each process's last
// step index where it lies in the tail. Returns false when the entry cap is
// hit (the state is not admitted).
func (c *joinCache) put(key joinKey, log *sim.AccessLog, last *[dporMaxProcs]int32, horizon int, steps int64, settled bool) bool {
	if len(c.m) >= c.max {
		c.capped = true
		return false
	}
	ent := joinEntry{
		tail:    int32(len(c.tailPID)),
		accs:    int32(len(c.accs)),
		steps:   steps,
		settled: settled,
	}
	for p, l := range last {
		ent.last[p] = -1
		if int(l) >= horizon {
			ent.last[p] = l
		}
	}
	for i := horizon; i < log.Steps(); i++ {
		p, acc := log.Step(i)
		c.tailPID = append(c.tailPID, p)
		c.accs = append(c.accs, acc...)
		c.tailAccEnd = append(c.tailAccEnd, int32(len(c.accs)))
	}
	ent.tailEnd = int32(len(c.tailPID))
	c.m[key] = ent
	return true
}

// readStep appends step k (0-based) of the entry's tail to a joined run's
// log.
func (c *joinCache) readStep(ent *joinEntry, k int, log *sim.AccessLog) {
	i := ent.tail + int32(k)
	start := ent.accs
	if k > 0 {
		start = c.tailAccEnd[i-1]
	}
	log.AppendStep(c.tailPID[i], c.accs[start:c.tailAccEnd[i]])
}
