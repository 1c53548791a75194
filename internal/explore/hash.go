package explore

import "weakestfd/internal/sim"

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
// Both runs are at the same global time (t = h: time advances one per step),
// the crash pattern fires at absolute times, and the flips still pending
// after h fire at absolute times fixed by the configuration — the same for
// every run sharing the cache — so equal keys imply the continuations are
// *identical runs*, step for step — not merely equivalent. The joiner
// therefore stops executing at h, splices the cached tail's access trace
// into its log (so the race analysis that drives further branching sees the
// complete run), counts the cached tail's step/settledness facts, and skips
// property checking: the first visitor checked the identical run, and the
// explorer deduplicates violations per (pattern, oracle, property), so a
// joiner's checks can contribute nothing the first visitor's did not.
//
// The cache is bounded by Config.MaxStates entries per configuration; once
// full it stops admitting new states (Result.StateCapped) but keeps probing
// existing ones — joins degrade, coverage does not.

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
// grants and access trace sit in the cache's arenas, and the run facts the
// joiner reports instead of measuring.
type joinEntry struct {
	grants, grantsEnd int32 // the tail's grants: joinCache.grants[grants:grantsEnd]
	tail, tailEnd     int32 // the tail's steps: tailPID/tailAccEnd[tail:tailEnd]
	accs              int32 // where the first tail step's accesses start
	steps             int64
	settled           bool
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

	grants     []sim.PID
	tailPID    []sim.PID
	tailAccEnd []int32
	accs       []sim.Access
}

func newJoinCache(max int) *joinCache {
	return &joinCache{max: max, m: make(map[joinKey]joinEntry)}
}

// get returns the cached continuation for key, reporting whether it exists.
func (c *joinCache) get(key joinKey) (joinEntry, bool) {
	ent, ok := c.m[key]
	return ent, ok
}

// put records a continuation: the tail portion of the log (steps from
// horizon on) and of the grant sequence, copied into the arenas. Returns
// false when the entry cap is hit (the state is not admitted).
func (c *joinCache) put(key joinKey, log *sim.AccessLog, granted []sim.PID, horizon int, steps int64, settled bool) bool {
	if len(c.m) >= c.max {
		c.capped = true
		return false
	}
	ent := joinEntry{
		grants:  int32(len(c.grants)),
		tail:    int32(len(c.tailPID)),
		accs:    int32(len(c.accs)),
		steps:   steps,
		settled: settled,
	}
	if horizon < len(granted) {
		c.grants = append(c.grants, granted[horizon:]...)
	}
	for i := horizon; i < log.Steps(); i++ {
		p, acc := log.Step(i)
		c.tailPID = append(c.tailPID, p)
		c.accs = append(c.accs, acc...)
		c.tailAccEnd = append(c.tailAccEnd, int32(len(c.accs)))
	}
	ent.grantsEnd = int32(len(c.grants))
	ent.tailEnd = int32(len(c.tailPID))
	c.m[key] = ent
	return true
}

// splice appends the entry's tail to a joined run: its steps to log and its
// grants to granted, which it returns extended.
func (c *joinCache) splice(ent joinEntry, log *sim.AccessLog, granted []sim.PID) []sim.PID {
	start := ent.accs
	for i := ent.tail; i < ent.tailEnd; i++ {
		end := c.tailAccEnd[i]
		log.AppendStep(c.tailPID[i], c.accs[start:end])
		start = end
	}
	return append(granted, c.grants[ent.grants:ent.grantsEnd]...)
}
