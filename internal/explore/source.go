package explore

import (
	"fmt"

	"weakestfd/internal/sim"
)

// Source-DPOR with wakeup sequences and state-hash joins — the explorer's
// engine.
//
// Classic dynamic partial-order reduction (Flanagan & Godefroid, POPL 2005)
// reacts to a race between steps b < c by inserting a bare backtrack
// alternative at node b and letting the fair tail find the reversal; sibling
// subtrees that turn out equivalent are only culled after the fact by sleep
// sets, each cull costing the run that discovered it. This engine applies the
// source-set insight (Abdulla, Aronis, Jonsson, Sagonas, POPL 2014): the race
// analysis computes the wakeup sequence of the reversal (wakeup.go) and its
// *initials* — the exact set of first-steps whose exploration from node b
// covers the reversal. A race whose initials intersect the node's explored
// alternatives, pending wakeup heads, or sleep set needs no new run at all;
// otherwise the full wakeup sequence is queued and the next run is *forced*
// into the reversal rather than left to wander. Under non-empty flip
// schedules the window is flip-anchored first (wakeup.go): steps whose
// history queries would cross an output flip on the leftward shift are
// excluded from the sequence, so forced runs replay deterministically even
// while the detector environment is still changing its mind. Classic DPOR's
// conservative "add every enabled process" fallback disappears entirely — in
// this simulator enabledness is monotone (crashes fire at absolute times,
// returning is forever), so the racing process is always enabled at the
// insertion node and a single targeted alternative suffices.
//
// Each completed run is analyzed with per-process and per-object vector
// clocks, and the DFS re-executes the chosen prefix (runs are deterministic
// in the schedule, so re-execution is state restoration) and closes each run
// with the fair round-robin tail. Sleep sets kill redundant siblings: a
// fully-explored child process goes to sleep carrying its first step's
// access set, stays asleep along independent steps, is woken by the first
// conflicting one, and is never re-explored while asleep.
//
// The analysis of a run stops where no race can reach the search any more.
// Let h be the stack depth after the run (the steps that are branch nodes)
// and F[r] the number of process r's steps among the first h. A race check
// at a later step compares the stepping process's pre-step clock with the
// step count of the earlier step's process at that step; when the earlier
// step is a branch node that count is at most F of its process, and when it
// is not, raceReversal discards the race at its first line. Clocks only
// grow, so once every process that steps again has a clock dominating F no
// later check can fire, and the per-step clocks the wakeup construction
// reads never lie past a race's later step: analyze returns after the first
// step at or past h-1 where that holds, and every race it hands on is one
// the complete walk would have found, in the same order.
//
// On top of the source-set search sits the state-hash join layer (hash.go):
// with a finite branch horizon (Config.MaxDepth < Budget) every run's tail
// beyond the horizon is a deterministic fair round-robin, so runs whose
// prefixes commute into the same horizon state share their tail. The first
// run to reach a state executes and caches the tail; later runs stop at the
// horizon, and the race analysis reads the cached tail into their access
// log one step at a time as its walk reaches it, so the part past the
// cutoff above is never copied. Joined runs skip re-checking properties the
// first visitor already checked on the identical continuation.
// Result.Joined counts them; Config.NoHash disables the layer for
// differential testing.

// dporMaxProcs bounds the vector-clock width. The CLI caps exploration at
// n = 5; fixed-size clock arrays keep the analysis allocation-light.
const dporMaxProcs = 8

// vclock is a vector clock: entry q counts the steps of process q known to
// happen before the clock's owner.
type vclock [dporMaxProcs]int32

func (a vclock) join(b vclock) vclock {
	for i := range a {
		if b[i] > a[i] {
			a[i] = b[i]
		}
	}
	return a
}

// covers reports whether a dominates b entry by entry.
func (a vclock) covers(b vclock) bool {
	for i := range a {
		if a[i] < b[i] {
			return false
		}
	}
	return true
}

// sleeper is one sleep-set entry: a process whose subtree is fully explored
// at this point, together with its next step's access set (known from that
// exploration), so later steps can wake it exactly when they conflict.
type sleeper struct {
	p   sim.PID
	acc []sim.Access
}

func sleepContains(sleep []sleeper, p sim.PID) bool {
	for _, s := range sleep {
		if s.p == p {
			return true
		}
	}
	return false
}

// runRecord is the schedule of the engine's runs and their scheduling
// transcript at once: a sim.FixedSchedule replays the forced prefix and
// closes the run with its fresh round-robin tail, and the record keeps the
// grant and enabled set of every step for the post-run dependency analysis,
// and each process's last step for the analysis's cutoff. One record serves
// every run of a configuration; reset rewinds it, keeping its buffers. The
// join key's rotation component relies on the tail's rotation starting
// fresh on every run.
type runRecord struct {
	sched   sim.FixedSchedule
	granted []sim.PID
	enabled []sim.Set
	// last[p] is the index of p's last step, -1 while p has not stepped.
	last [dporMaxProcs]int32
}

// reset starts the next run, forced into prefix.
func (r *runRecord) reset(prefix []sim.PID) {
	r.sched = sim.FixedSchedule{Prefix: prefix}
	r.granted = r.granted[:0]
	r.enabled = r.enabled[:0]
	for p := range r.last {
		r.last[p] = -1
	}
}

// Next implements sim.Schedule.
func (r *runRecord) Next(t sim.Time, enabled sim.Set) sim.PID {
	pick := r.sched.Next(t, enabled)
	r.last[pick] = int32(len(r.granted))
	r.granted = append(r.granted, pick)
	r.enabled = append(r.enabled, enabled)
	return pick
}

// objAccess tracks, per shared object, the most recent write and the most
// recent read of each process, with the accessor's vector clock at that
// step — the state the race detection and happens-before joins consume.
// Entries live in srcSearch.objs across runs; gen stamps which run an
// entry was last touched in, so stale entries are reset in place instead
// of reallocating the table on every run.
type objAccess struct {
	gen  int32
	wIdx int32 // step index of the last write; -1 when none
	wPID int8
	wSC  int32 // the writer's per-process step count at that write
	wClk vclock
	rIdx [dporMaxProcs]int32 // last read per process; -1 when none
	rSC  [dporMaxProcs]int32
	rClk [dporMaxProcs]vclock
}

// srcNode is one level of the source-DPOR search stack: the state reached by
// executing chosen[0..depth-1], with its scheduling alternatives.
type srcNode struct {
	enabled  sim.Set
	chosen   sim.PID
	accesses []sim.Access // the chosen step's access set (owned copy)
	// covered holds the alternatives already explored (or pruned) at this
	// node; wut the pending wakeup sequences, each beginning with the
	// alternative it would explore.
	covered sim.Set
	wut     [][]sim.PID
	sleep   []sleeper // inherited sleep set at entry to this node
	slept   []sleeper // earlier fully-explored siblings at this node
}

// srcSearch is the per-configuration source-DPOR state.
type srcSearch struct {
	e       *explorer
	pattern sim.Pattern
	oracle  OracleChoice
	n       int
	log     *sim.AccessLog
	stack   []srcNode

	// objs is the per-object analysis state, indexed by ObjID (IDs are
	// dense and stable across the runs of one search because the log's
	// intern table survives Reset). Entries are generation-stamped and
	// lazily reset per run, so the hot analysis loop allocates nothing
	// after warm-up.
	objs []objAccess
	gen  int32
	// stepClk[k] is step k's post-step vector clock in the current run;
	// stepSC[k] the stepping process's step count at k. The wakeup-sequence
	// construction reads both (wakeup.go).
	stepClk []vclock
	stepSC  []int32
	scratch []raceStep
	// keep/drops are anchorWindow's scratch partitions of the notdep window;
	// seam is the analyzed run's query seam and hasFlips whether any of its
	// registered histories flips at all — when false, flip anchoring is a
	// no-op and raceReversal skips it.
	keep     []raceStep
	drops    []raceStep
	seam     *sim.QuerySeam
	hasFlips bool

	// joins is the state-hash cache; nil when hashing is off. horizon is the
	// probe depth (Config.MaxDepth), 0 when hashing is off.
	joins   *joinCache
	horizon int
	// rec is the schedule and transcript of the current run. A joined run's
	// log stops at the horizon: tailed is set, tail is the cached
	// continuation analyze reads on demand, and rec.last already counts the
	// tail's steps.
	rec    runRecord
	tail   joinEntry
	tailed bool

	runs       int64
	violations int64
	pruned     int64
	joined     int64
	truncated  bool
}

// sourceConfig runs the source-DPOR DFS for one (pattern, oracle)
// configuration.
func (e *explorer) sourceConfig(pattern sim.Pattern, oracle OracleChoice) *srcSearch {
	return e.search(pattern, oracle, func(s *srcSearch) { s.analyze(len(s.stack)) })
}

// search is sourceConfig with the race analysis of each run passed in: the
// seam through which a test checks analyze's cutoff against a walk of every
// complete run.
func (e *explorer) search(pattern sim.Pattern, oracle OracleChoice, analyze func(*srcSearch)) *srcSearch {
	n := e.cfg.System.N()
	if n > dporMaxProcs {
		panic(fmt.Sprintf("explore: source-DPOR supports n <= %d, got %d", dporMaxProcs, n))
	}
	s := &srcSearch{e: e, pattern: pattern, oracle: oracle, n: n, log: sim.NewAccessLog()}
	if !e.cfg.NoHash && e.cfg.MaxDepth < int(e.cfg.Budget) {
		s.horizon = e.cfg.MaxDepth
		s.joins = newJoinCache(e.cfg.MaxStates)
		s.log.EnableDigest()
	}
	// The join probe fires once per run, when the step count reaches the
	// horizon: on a cache hit the run stops there and reuses the cached tail;
	// on a miss the completed run's tail is inserted under the probed key.
	// The probe is the digest's only reader, so the log stops maintaining
	// the digest there until the next run's Reset. The closure (and the
	// per-run probe state it captures) is built once for the whole
	// configuration, and so is the run record — both sit on the per-run hot
	// path.
	var prefix []sim.PID
	rec := &s.rec
	var probed bool
	var probeKey joinKey
	var stop func(sim.Time) bool
	if s.horizon > 0 {
		stop = func(t sim.Time) bool {
			if int(t) != s.horizon || probed {
				return false
			}
			probed = true
			probeKey = joinKey{digest: s.log.StateDigest(), rr: -1}
			s.log.StopDigest()
			if s.horizon > len(prefix) {
				probeKey.rr = int16(rec.granted[s.horizon-1])
			} else if len(prefix) > s.horizon {
				// The forced prefix extends past the horizon: those steps
				// have not executed yet, so two runs may join only when
				// they agree on the pending suffix too.
				probeKey.pending = pidSeqFP(prefix[s.horizon:])
			}
			s.tail, s.tailed = s.joins.get(probeKey)
			return s.tailed
		}
	}
	for {
		if e.stopped() {
			return s
		}
		if e.cfg.MaxRuns > 0 && s.runs >= e.cfg.MaxRuns {
			s.truncated = true
			return s
		}
		rec.reset(prefix)
		s.log.Reset()
		s.tailed, probed = false, false

		run := execute(e.cfg.System, pattern, oracle, rec, e.cfg.Budget, s.log, stop)
		s.seam = run.seam
		s.hasFlips = s.seam.FlipsRemaining(0) > 0
		s.runs++
		e.runs.Add(1)
		if s.tailed {
			// Joined run: the race analysis reads the cached tail, and the
			// run reports the first visitor's facts. The first visitor also
			// checked the identical continuation, so no property check here.
			for p, l := range s.tail.last {
				if l >= 0 {
					rec.last[p] = l
				}
			}
			s.joined++
			e.joined.Add(1)
			if s.tail.settled {
				e.settled.Add(1)
			}
			bumpMax(&e.maxSteps, s.tail.steps)
		} else {
			// The schedule aliases the record's buffer, valid until the
			// next run: everything that keeps it (the shrinker) copies it.
			run.Schedule = rec.granted
			if run.OutputsSettled {
				e.settled.Add(1)
			}
			bumpMax(&e.maxSteps, run.Report.Steps)
			s.violations += e.check(run, pattern, oracle)
			if probed {
				s.joins.put(probeKey, s.log, &rec.last, s.horizon, run.Report.Steps, run.OutputsSettled)
			}
		}
		if rec.sched.Diverged() {
			// A forced prefix can only diverge if re-execution is not
			// deterministic — a broken system, not a property of the run.
			// Wakeup tails cannot diverge either: their steps left-shift to
			// earlier times, enabledness is monotone, and flip anchoring
			// (wakeup.go) admits a querying step into a forced sequence only
			// when the shift crosses no output flip.
			panic(fmt.Sprintf("explore: source-DPOR prefix diverged on %s under %s, %s (non-deterministic system?)",
				e.cfg.System.Name(), patternLabel(pattern), oracle.Name))
		}
		s.extend()
		analyze(s)
		var ok bool
		prefix, ok = s.nextPrefix(prefix)
		if !ok {
			return s
		}
	}
}

// extend refills the branch node's access set from the re-executed run (its
// alternative just ran for the first time) and appends stack nodes for the
// steps beyond the current stack (up to MaxDepth) — which include the forced
// wakeup tail, each node seeded with its executed step as the first covered
// alternative.
func (s *srcSearch) extend() {
	rec := &s.rec
	steps := s.log.Steps()
	if k := len(s.stack); k > 0 {
		nd := &s.stack[k-1]
		_, acc := s.log.Step(k - 1)
		nd.accesses = append(nd.accesses[:0], acc...)
	}
	limit := steps
	if s.e.cfg.MaxDepth < limit {
		limit = s.e.cfg.MaxDepth
	}
	for i := len(s.stack); i < limit; i++ {
		_, acc := s.log.Step(i)
		nd := srcNode{
			enabled:  rec.enabled[i],
			chosen:   rec.granted[i],
			accesses: append([]sim.Access(nil), acc...),
		}
		nd.covered = sim.EmptySet.Add(nd.chosen)
		if i > 0 {
			nd.sleep = inheritSleep(&s.stack[i-1])
		}
		s.stack = append(s.stack, nd)
	}
}

// inheritSleep filters the parent's sleep entries (inherited and local)
// through the parent's executed step: an entry survives while it commutes
// with every step taken since it fell asleep and is woken — dropped — by
// the first conflicting step (or by its own execution).
func inheritSleep(parent *srcNode) []sleeper {
	var out []sleeper
	keep := func(sl sleeper) {
		if sl.p != parent.chosen && !sim.AccessesConflict(parent.accesses, sl.acc) {
			out = append(out, sl)
		}
	}
	for _, sl := range parent.sleep {
		keep(sl)
	}
	for _, sl := range parent.slept {
		keep(sl)
	}
	return out
}

// analyze walks the completed run, maintains the happens-before relation
// with vector clocks, and hands every race — a pair of conflicting accesses
// by different processes not ordered by the rest of the relation — to
// raceReversal, which builds its wakeup sequence. Immediate conflicting
// predecessors suffice: for a read, the last write; for a write, the last
// write and every process's last read since it (older accesses are ordered
// transitively through those). Per-step clocks are kept for the notdep
// computation.
//
// The walk stops after the first step i >= h-1 at which every process that
// steps again after i has a clock dominating F, each process's step count
// over the first h steps (the saturation rule in the header above); the
// search passes its stack depth for h. A joined run's cached tail is read
// into the log step by step as the walk reaches it. analyze returns the
// number of steps it walked.
func (s *srcSearch) analyze(h int) int {
	steps := s.steps()
	s.gen++
	if cap(s.stepClk) < steps {
		s.stepClk = make([]vclock, steps)
		s.stepSC = make([]int32, steps)
	}
	s.stepClk = s.stepClk[:steps]
	s.stepSC = s.stepSC[:steps]
	var clk [dporMaxProcs]vclock
	var scount, frontier vclock
	var sat sim.Set // processes whose clock dominates frontier
	for i := 0; i < steps; i++ {
		if i == s.log.Steps() {
			s.joins.readStep(&s.tail, i-s.horizon, s.log)
		}
		pid, accs := s.log.Step(i)
		p := int(pid)
		// 1. Race detection against the pre-step clock.
		for _, a := range accs {
			o := s.obj(a.Obj)
			if o.wIdx >= 0 && int(o.wPID) != p && clk[p][o.wPID] < o.wSC {
				s.raceReversal(int(o.wIdx), i, pid, int(o.wPID), o.wSC)
			}
			if a.Kind == sim.AccessWrite {
				for q := 0; q < s.n; q++ {
					if q == p || o.rIdx[q] < 0 || o.rIdx[q] < o.wIdx {
						continue
					}
					if clk[p][q] < o.rSC[q] {
						s.raceReversal(int(o.rIdx[q]), i, pid, q, o.rSC[q])
					}
				}
			}
		}
		// 2. Join the clocks of the conflicting predecessors.
		c := clk[p]
		for _, a := range accs {
			o := s.obj(a.Obj)
			if o.wIdx >= 0 {
				c = c.join(o.wClk)
			}
			if a.Kind == sim.AccessWrite {
				for q := 0; q < s.n; q++ {
					if o.rIdx[q] >= 0 {
						c = c.join(o.rClk[q])
					}
				}
			}
		}
		scount[p]++
		c[p] = scount[p]
		clk[p] = c
		s.stepClk[i] = c
		s.stepSC[i] = scount[p]
		// 3. This step's accesses become the new immediate predecessors.
		for _, a := range accs {
			o := s.obj(a.Obj)
			if a.Kind == sim.AccessWrite {
				o.wIdx, o.wPID, o.wSC, o.wClk = int32(i), int8(p), scount[p], c
			} else {
				o.rIdx[p], o.rSC[p], o.rClk[p] = int32(i), scount[p], c
			}
		}
		// 4. Stop once no later race check can fire.
		switch {
		case i < h-1:
			continue
		case i == h-1:
			frontier = scount
			for q := 0; q < s.n; q++ {
				if clk[q].covers(frontier) {
					sat = sat.Add(sim.PID(q))
				}
			}
		case !sat.Has(pid) && c.covers(frontier):
			sat = sat.Add(pid)
		}
		if s.saturated(i, sat) {
			return i + 1
		}
	}
	return steps
}

// steps is the length of the run under analysis: the log's, or for a joined
// run the horizon plus the cached tail's.
func (s *srcSearch) steps() int {
	if s.tailed {
		return s.horizon + int(s.tail.tailEnd-s.tail.tail)
	}
	return s.log.Steps()
}

// saturated reports whether every process that steps after step i is in
// sat.
func (s *srcSearch) saturated(i int, sat sim.Set) bool {
	for q := 0; q < s.n; q++ {
		if int(s.rec.last[q]) > i && !sat.Has(sim.PID(q)) {
			return false
		}
	}
	return true
}

// obj returns the analysis entry for id in the current run (generation),
// growing the table on first sight of an ID and resetting entries left
// over from earlier runs.
func (s *srcSearch) obj(id sim.ObjID) *objAccess {
	for int(id) >= len(s.objs) {
		s.objs = append(s.objs, objAccess{})
	}
	o := &s.objs[id]
	if o.gen != s.gen {
		o.gen = s.gen
		o.wIdx = -1
		for i := range o.rIdx {
			o.rIdx[i] = -1
		}
	}
	return o
}

// raceReversal handles one race between steps b < c (p = proc(c); procB and
// scB identify step b's process and step count): it builds the wakeup
// sequence v·p of the reversal and queues it at node b, unless an initial of
// the sequence shows the reversal is already covered there.
//
// Under flip schedules the window is first refined by anchorWindow
// (wakeup.go): steps whose history reads would cross an output flip on the
// leftward shift — and their dependents — are dropped, so the forced
// sequence replays every kept step's recorded behavior. When step c itself
// survives the refinement the full sequence is queued exactly as in the
// stable case; when it does not, the engine falls back to the pre-PR-10
// single-initial insertion, gated on the unanchored window's initials.
func (s *srcSearch) raceReversal(b, c int, p sim.PID, procB int, scB int32) {
	if b >= len(s.stack) {
		return // beyond MaxDepth: not a choice point
	}
	nd := &s.stack[b]
	s.scratch = s.notDepWindow(s.scratch[:0], b, c, procB, scB)
	win := s.scratch
	_, accC := s.log.Step(c)
	stepC := raceStep{p: p, acc: accC, t: sim.Time(c + 1)}
	okC := true
	if s.hasFlips {
		var kept []raceStep
		kept, okC = s.anchorWindow(win, b, p, accC, stepC.t)
		if okC {
			win = kept
		}
	}
	v := append(win, stepC)
	ini := initials(v)
	// Source-set gate: an initial already explored (or queued, or slept) at
	// node b covers the reversal — its subtree contains a linearization of
	// v·p's trace.
	if !ini.Intersect(nd.covered).IsEmpty() {
		return
	}
	for _, w := range nd.wut {
		if ini.Has(w[0]) {
			return
		}
	}
	for _, sl := range nd.sleep {
		if ini.Has(sl.p) {
			s.pruned++
			return
		}
	}
	var seq []sim.PID
	if okC {
		// Full wakeup sequence: force the next run straight into the
		// reversal.
		seq = make([]sim.PID, 0, len(v))
		for _, e := range v {
			seq = append(seq, e.p)
		}
	} else {
		// Step c cannot replay at its shifted position (its own query would
		// cross a flip, or it depends on a flip-pinned window step): degrade
		// to a bare single-initial insertion (still gated on the source set
		// above).
		q := p
		if !ini.Has(p) {
			q = ini.Min()
		}
		seq = []sim.PID{q}
	}
	if !nd.enabled.Has(seq[0]) {
		return // unreachable given monotone enabledness; defensive
	}
	if hasSequence(nd.wut, seq) {
		return
	}
	nd.wut = append(nd.wut, seq)
}

// nextPrefix pops the search to the deepest node with a pending wakeup
// sequence and returns the forced prefix of the next run: the stack's chosen
// steps through that node (re-chosen to the sequence head) followed by the
// rest of the sequence. Sequences whose head is meanwhile covered or asleep
// are dropped as pruned schedules.
func (s *srcSearch) nextPrefix(prefix []sim.PID) ([]sim.PID, bool) {
	for i := len(s.stack) - 1; i >= 0; i-- {
		nd := &s.stack[i]
		for len(nd.wut) > 0 {
			seq := nd.wut[len(nd.wut)-1]
			nd.wut = nd.wut[:len(nd.wut)-1]
			q := seq[0]
			if nd.covered.Has(q) || sleepContains(nd.sleep, q) {
				s.pruned++
				continue
			}
			// Retire the current child into the sleep set of q's subtree.
			nd.slept = append(nd.slept, sleeper{p: nd.chosen, acc: nd.accesses})
			nd.covered = nd.covered.Add(q)
			nd.chosen = q
			nd.accesses = nil
			s.stack = s.stack[:i+1]
			out := prefix[:0]
			for k := 0; k <= i; k++ {
				out = append(out, s.stack[k].chosen)
			}
			out = append(out, seq[1:]...)
			return out, true
		}
	}
	return nil, false
}
