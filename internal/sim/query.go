package sim

// Detector-query observability: the seam that makes failure detector queries
// first-class shared-object accesses. A detector history is global state the
// adversary controls — morally a shared register every process can read and
// only the environment writes. Before this seam existed, queries were
// out-of-band function calls invisible to the access log, which forced the
// explorer (internal/explore) to pin every history to a value that is stable
// from time 0: an output switch ("flip") at time T makes step behaviour
// depend on a step's global time, and commuting two independent adjacent
// steps shifts both their times by one, so dynamic partial-order reduction
// would silently merge schedules that straddle a flip and disagree on what a
// query returned.
//
// The seam closes that hole by modelling each history as a virtual object in
// the run's AccessLog:
//
//   - every query is recorded as a read of the history object,
//   - every flip at time T is recorded as a write of the history object,
//     charged to whichever step executes at time T (the runner calls OnStep
//     inside the step's access span), and
//   - the step at time T−1 — the flip's boundary guard — records a read of
//     the object.
//
// The boundary guard is what keeps DPOR's independence relation sound. A
// flip belongs to a global time, not to a process: commuting two adjacent
// independent steps shifts both across one time unit, so the only dangerous
// swap is the one across a flip boundary — it would move the time-T step
// (which observes the post-flip value if it queries) to T−1, where it would
// observe the pre-flip value. With the guard read at T−1 conflicting with
// the flip write at T, that boundary pair is never treated as independent,
// and since every schedule equivalent under DPOR's relation is reachable by
// adjacent swaps of independent steps, no equivalence class ever straddles a
// boundary: all members agree on every query's result. Swaps strictly inside
// one phase remain free — non-querying steps commute as before, and a
// history with no flips (stable from time 0) induces only inert query
// reads, so the search degenerates to exactly the stable-history
// exploration. Reorderings that move a *query* to the other side of a flip
// are ordered directly by the query's read against the flip's write, and
// are explored as the genuinely different runs they are.
//
// A nil *QuerySeam is the no-op default: queries go straight to the oracle,
// nothing is recorded, and the hot paths pay one nil check (the lab and
// benchmark workloads run with a nil seam at zero allocation cost).

// FlipOracle is an Oracle whose output changes at finitely many known global
// times and is constant in between (and uniform across processes) — the
// flip-aware history contract the query seam needs to record output switches
// as writes. Histories explored under DPOR with pre-stabilization output
// must implement it; fd.Unstable is the canonical implementation.
type FlipOracle interface {
	Oracle
	// FlipTimes returns the times at which the output changes, in strictly
	// increasing order. A query at a flip time observes the post-flip value.
	FlipTimes() []Time
}

// histSlot is one registered history: the oracle, its interned virtual
// object, and its flip schedule.
type histSlot struct {
	h     Oracle
	id    ObjID
	flips []Time
}

// QuerySeam routes detector queries of one run and records them (and the
// registered histories' flips) into the run's access log. Build one per
// recorded run with NewQuerySeam, or Reset one for the next run, Register
// every history the machines query, and hand it to the runner through
// Config.Queries; the runner forwards it to machines via
// MachineContext.Queries and calls OnStep inside every step's access span.
type QuerySeam struct {
	log   *AccessLog
	hists []histSlot
}

// NewQuerySeam returns a seam recording into log (which may be nil, making
// the seam a pure pass-through).
func NewQuerySeam(log *AccessLog) *QuerySeam {
	return &QuerySeam{log: log}
}

// Reset unregisters every history and makes the seam record into log, as
// NewQuerySeam(log) would, keeping its storage for the next run's
// registrations.
func (q *QuerySeam) Reset(log *AccessLog) {
	q.log = log
	clear(q.hists)
	q.hists = q.hists[:0]
}

// Register adds a history under the given virtual-object name (a plain
// ObjKey, KeyOf(name)). If h implements FlipOracle its output switches are
// recorded as writes of the object; other oracles are assumed stable for
// the whole run (their queries record inert reads). Registering the same
// oracle twice is a no-op.
func (q *QuerySeam) Register(name string, h Oracle) {
	if q == nil || q.log == nil || h == nil {
		return
	}
	for _, s := range q.hists {
		if s.h == h {
			return
		}
	}
	slot := histSlot{h: h, id: q.log.Intern(KeyOf(name))}
	if fo, ok := h.(FlipOracle); ok {
		slot.flips = fo.FlipTimes()
	}
	q.hists = append(q.hists, slot)
}

// OnStep records the environment's history-object accesses of the step at
// time t: a write per registered history flipping at t, and a boundary-guard
// read per history flipping at t+1. The runner calls it between
// AccessLog.BeginStep and the machine step, so the accesses land in the
// step's span. Nil-safe no-op.
func (q *QuerySeam) OnStep(t Time) {
	if q == nil || q.log == nil {
		return
	}
	for i := range q.hists {
		s := &q.hists[i]
		for _, ft := range s.flips {
			if ft == t {
				if q.log.DigestOn() {
					// Fingerprint the post-flip output (uniform across
					// processes by the FlipOracle contract), so the history
					// object participates in state digests like any other
					// shared object: a query after the flip reads the new
					// fingerprint, and prefixes on opposite sides of a flip
					// can never be joined on a stale one.
					//lint:fdlint seamcheck -- the seam fingerprinting its own history object's post-flip output; this evaluation IS the instrumentation, not an unrecorded read
					q.log.RecordValued(s.id, AccessWrite, StateFP(s.h.Value(0, t)))
				} else {
					q.log.Record(s.id, AccessWrite)
				}
			} else if ft == t+1 {
				q.log.Record(s.id, AccessRead)
			}
		}
	}
	// The accesses above are the environment's, charged to whichever step
	// happens to run at the flip's absolute time: seal them out of the
	// stepping process's observation hash so state digests do not depend on
	// which bystander was standing next to a flip.
	q.log.SealEnv()
}

// FlipsRemaining counts, over every registered history, the output switches
// still ahead of time t. The source engine asks it whether a run's
// histories flip at all. Nil-safe (0).
func (q *QuerySeam) FlipsRemaining(t Time) int {
	if q == nil {
		return 0
	}
	n := 0
	for i := range q.hists {
		for _, ft := range q.hists[i].flips {
			if ft > t {
				n++
			}
		}
	}
	return n
}

// FlipCrossed reports whether object id is a registered history with an
// output switch at any absolute time ft with lo < ft <= hi. This is the
// flip-anchoring relation the source engine's wakeup-sequence construction
// depends on: a step that queries the history at time hi observes the value
// after every flip <= hi, so moving the step leftward to time lo preserves
// its observation exactly when no flip lies in (lo, hi]. Objects that are
// not registered histories never cross (false). Nil-safe (false).
func (q *QuerySeam) FlipCrossed(id ObjID, lo, hi Time) bool {
	if q == nil || lo >= hi {
		return false
	}
	for i := range q.hists {
		s := &q.hists[i]
		if s.id != id {
			continue
		}
		for _, ft := range s.flips {
			if ft > lo && ft <= hi {
				return true
			}
		}
	}
	return false
}

// Query evaluates oracle h at (p, t), recording the query as a read of h's
// history object when h is registered. It is nil-safe: a nil seam (or an
// unregistered oracle, e.g. an emulated process-local module) evaluates the
// oracle directly.
func (q *QuerySeam) Query(h Oracle, p PID, t Time) any {
	if q != nil && q.log != nil {
		for _, s := range q.hists {
			if s.h == h {
				q.log.Record(s.id, AccessRead)
				break
			}
		}
	}
	//lint:fdlint seamcheck -- the seam's single sanctioned evaluation site: the read of the history object was recorded above
	return h.Value(p, t)
}
