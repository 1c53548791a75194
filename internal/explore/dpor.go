package explore

import (
	"fmt"

	"weakestfd/internal/sim"
)

// Dynamic partial-order reduction (Flanagan & Godefroid, POPL 2005) over the
// step-machine engine — the explorer's default engine since PR 4.
//
// The legacy enumerator (EngineEnum, explore.go) bounds the *number of
// context switches*; DPOR instead bounds nothing and prunes by
// *commutativity*: two steps of different processes are independent when
// their shared-object access sets (recorded by sim.AccessLog through the
// instrumented memory.Direct* accessors) do not conflict, and schedules that
// differ only by reordering independent adjacent steps are equivalent —
// they produce identical shared state and identical local results. DPOR
// explores at least one representative of every equivalence class
// (Mazurkiewicz trace) of the full-depth schedule space:
//
//   - Each completed run is analyzed with per-process and per-object vector
//     clocks. A pair of conflicting accesses by different processes that is
//     not already ordered by the happens-before relation of the run minus
//     that pair (a "race") means the reversed order is a genuinely
//     different trace: a backtrack point is inserted at the earlier step's
//     pre-state (the racing process if enabled there, every enabled process
//     otherwise).
//   - The DFS re-executes the chosen prefix (runs are deterministic in the
//     schedule, so re-execution is state restoration) and closes each run
//     with the fair round-robin tail.
//   - Sleep sets kill redundant siblings: a fully-explored child process
//     goes to sleep carrying its first step's access set, stays asleep
//     along independent steps, is woken by the first conflicting one, and
//     is never re-explored while asleep. Each sleep-set skip is counted as
//     a pruned schedule.
//
// Soundness of the reduction relies on two properties of the explored
// configurations. First, a machine's step behaviour must not depend on the
// global time of the step in any way the access sets do not capture, since
// commuting two adjacent steps shifts both their times by one. Crash times
// are fixed by the pattern regardless of who steps, and the protocol
// machines use the time parameter only for detector queries — which the
// query seam (sim.QuerySeam, registered by execute for every instance
// history) makes first-class accesses of a virtual per-history object:
// queries read it, each pre-stabilization output switch of an unstable
// history (OracleChoice.Flips) writes it at its global time, and the step
// one before a flip carries a boundary-guard read. Conflicts on the history
// object therefore order every reordering that could change a query's
// result, and stable-from-0 histories degenerate to inert reads — the PR-4
// search, run for run. Second, the
// checked properties must be trace-invariant — equal on every member of an
// equivalence class — so that checking the one executed representative
// decides the class. Properties over decisions (agreement, validity,
// termination-of-correct) are functions of the final state and qualify.
// The extraction's upsilon-sanity is the known exception at its margin:
// whether outputs count as "settled" compares the global time of the last
// output change against a stability window, and that time is not invariant
// under commutation, so a class straddling the window boundary may be
// checked on an unsettled (vacuously passing) representative. The sweep
// surfaces Result.SettledRuns so a settledness collapse is visible, and
// the legacy enumerator — which executes every bounded schedule rather
// than one per class — remains the reference lens for that property.
//
// Non-terminating systems (the Figure 3 extraction, whose runs always cost
// the full budget) additionally need Config.MaxDepth: backtrack points are
// only inserted at depths below it, giving bounded-depth DPOR — exhaustive
// up to commutativity over every prefix of that depth, with the fair tail
// beyond. Terminating protocols leave MaxDepth at the default (the step
// budget), which makes the search genuinely full-depth.

// dporMaxProcs bounds the vector-clock width. The CLI caps exploration at
// n = 4; fixed-size clock arrays keep the analysis allocation-light.
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

// dporNode is one level of the search stack: the state reached by executing
// chosen[0..depth-1], with its scheduling alternatives.
type dporNode struct {
	enabled  sim.Set
	chosen   sim.PID
	accesses []sim.Access // the chosen step's access set (owned copy)
	// backtrack holds the processes that must be tried at this node (seeded
	// with the first chosen process, grown by race analysis); done the ones
	// already tried or pruned.
	backtrack sim.Set
	done      sim.Set
	sleep     []sleeper // inherited sleep set at entry to this node
	slept     []sleeper // earlier fully-explored siblings at this node
}

// runRecord is the schedule of a reducing engine's runs and their
// scheduling transcript at once: a sim.FixedSchedule replays the forced
// prefix and closes the run with its fresh round-robin tail, and the record
// keeps the grant and enabled set of every step for the post-run dependency
// analysis. One record serves every run of a configuration; reset rewinds
// it, keeping its buffers. The join key's rotation component relies on the
// tail's rotation starting fresh on every run.
type runRecord struct {
	sched   sim.FixedSchedule
	granted []sim.PID
	enabled []sim.Set
}

// reset starts the next run, forced into prefix.
func (r *runRecord) reset(prefix []sim.PID) {
	r.sched = sim.FixedSchedule{Prefix: prefix}
	r.granted = r.granted[:0]
	r.enabled = r.enabled[:0]
}

// Next implements sim.Schedule.
func (r *runRecord) Next(t sim.Time, enabled sim.Set) sim.PID {
	pick := r.sched.Next(t, enabled)
	r.granted = append(r.granted, pick)
	r.enabled = append(r.enabled, enabled)
	return pick
}

// dporSearch is the per-configuration DPOR state.
type dporSearch struct {
	e       *explorer
	pattern sim.Pattern
	oracle  OracleChoice
	n       int
	log     *sim.AccessLog
	stack   []dporNode

	// objs is the per-object analysis state, indexed by ObjID (IDs are
	// dense and stable across the runs of one search because the log's
	// intern table survives Reset). Entries are generation-stamped and
	// lazily reset per run, so the hot analysis loop allocates nothing
	// after warm-up.
	objs []objAccess
	gen  int32

	runs       int64
	violations int64
	pruned     int64
	truncated  bool
}

// dporConfig runs the DPOR DFS for one (pattern, oracle) configuration.
func (e *explorer) dporConfig(pattern sim.Pattern, oracle OracleChoice) *dporSearch {
	n := e.cfg.System.N()
	if n > dporMaxProcs {
		panic(fmt.Sprintf("explore: DPOR supports n <= %d, got %d", dporMaxProcs, n))
	}
	d := &dporSearch{e: e, pattern: pattern, oracle: oracle, n: n, log: sim.NewAccessLog()}
	var prefix []sim.PID
	rec := &runRecord{}
	for {
		if e.stopped() {
			return d
		}
		if e.cfg.MaxRuns > 0 && d.runs >= e.cfg.MaxRuns {
			d.truncated = true
			return d
		}
		rec.reset(prefix)
		d.log.Reset()
		run := execute(e.cfg.System, pattern, oracle, rec, e.cfg.Budget, d.log, nil)
		// The schedule aliases the record's buffer, valid until the next
		// run: everything that keeps it (the shrinker) copies it.
		run.Schedule = rec.granted
		d.runs++
		e.runs.Add(1)
		if run.OutputsSettled {
			e.settled.Add(1)
		}
		bumpMax(&e.maxSteps, run.Report.Steps)
		d.violations += e.check(run, pattern, oracle)
		if rec.sched.Diverged() {
			// A forced prefix can only diverge if re-execution is not
			// deterministic — a broken system, not a property of the run.
			panic(fmt.Sprintf("explore: DPOR prefix diverged on %s under %s, %s (non-deterministic system?)",
				e.cfg.System.Name(), patternLabel(pattern), oracle.Name))
		}
		d.extend(len(prefix), rec)
		d.analyze()
		var ok bool
		prefix, ok = d.nextPrefix(prefix)
		if !ok {
			return d
		}
	}
}

// extend appends stack nodes for the steps the last run executed beyond the
// forced prefix (up to MaxDepth), and fills in the access set of the node
// whose alternative was just executed for the first time.
func (d *dporSearch) extend(start int, rec *runRecord) {
	steps := d.log.Steps()
	if start > 0 {
		nd := &d.stack[start-1]
		_, acc := d.log.Step(start - 1)
		nd.accesses = append(nd.accesses[:0], acc...)
	}
	limit := steps
	if d.e.cfg.MaxDepth < limit {
		limit = d.e.cfg.MaxDepth
	}
	for i := len(d.stack); i < limit; i++ {
		_, acc := d.log.Step(i)
		nd := dporNode{
			enabled:  rec.enabled[i],
			chosen:   rec.granted[i],
			accesses: append([]sim.Access(nil), acc...),
		}
		nd.backtrack = sim.EmptySet.Add(nd.chosen)
		nd.done = sim.EmptySet.Add(nd.chosen)
		if i > 0 {
			nd.sleep = inheritSleep(&d.stack[i-1])
		}
		d.stack = append(d.stack, nd)
	}
}

// inheritSleep filters the parent's sleep entries (inherited and local)
// through the parent's executed step: an entry survives while it commutes
// with every step taken since it fell asleep and is woken — dropped — by
// the first conflicting step (or by its own execution).
func inheritSleep(parent *dporNode) []sleeper {
	var out []sleeper
	keep := func(s sleeper) {
		if s.p != parent.chosen && !sim.AccessesConflict(parent.accesses, s.acc) {
			out = append(out, s)
		}
	}
	for _, s := range parent.sleep {
		keep(s)
	}
	for _, s := range parent.slept {
		keep(s)
	}
	return out
}

// objAccess tracks, per shared object, the most recent write and the most
// recent read of each process, with the accessor's vector clock at that
// step — the state the race detection and happens-before joins consume.
// Entries live in dporSearch.objs across runs; gen stamps which run an
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

// obj returns the analysis entry for id in the current run (generation),
// growing the table on first sight of an ID and resetting entries left
// over from earlier runs.
func (d *dporSearch) obj(id sim.ObjID) *objAccess {
	for int(id) >= len(d.objs) {
		d.objs = append(d.objs, objAccess{})
	}
	o := &d.objs[id]
	if o.gen != d.gen {
		o.gen = d.gen
		o.wIdx = -1
		for i := range o.rIdx {
			o.rIdx[i] = -1
		}
	}
	return o
}

// analyze walks the completed run, maintains the happens-before relation
// with vector clocks, and inserts a backtrack point for every race: a pair
// of conflicting accesses by different processes not ordered by the rest of
// the relation. Immediate conflicting predecessors suffice — for a read,
// the last write; for a write, the last write and every process's last read
// since it (older accesses are ordered transitively through those).
func (d *dporSearch) analyze() {
	steps := d.log.Steps()
	d.gen++
	var clk [dporMaxProcs]vclock
	var scount [dporMaxProcs]int32
	for i := 0; i < steps; i++ {
		pid, accs := d.log.Step(i)
		p := int(pid)
		// 1. Race detection against the pre-step clock: if p's causal past
		// does not include the conflicting predecessor, only this race
		// orders the pair, and the reversal must be explored.
		for _, a := range accs {
			o := d.obj(a.Obj)
			if o.wIdx >= 0 && int(o.wPID) != p && clk[p][o.wPID] < o.wSC {
				d.insertBacktrack(int(o.wIdx), pid)
			}
			if a.Kind == sim.AccessWrite {
				for q := 0; q < d.n; q++ {
					if q == p || o.rIdx[q] < 0 || o.rIdx[q] < o.wIdx {
						continue
					}
					if clk[p][q] < o.rSC[q] {
						d.insertBacktrack(int(o.rIdx[q]), pid)
					}
				}
			}
		}
		// 2. Join the clocks of the conflicting predecessors: this step
		// happens after them.
		c := clk[p]
		for _, a := range accs {
			o := d.obj(a.Obj)
			if o.wIdx >= 0 {
				c = c.join(o.wClk)
			}
			if a.Kind == sim.AccessWrite {
				for q := 0; q < d.n; q++ {
					if o.rIdx[q] >= 0 {
						c = c.join(o.rClk[q])
					}
				}
			}
		}
		scount[p]++
		c[p] = scount[p]
		clk[p] = c
		// 3. This step's accesses become the new immediate predecessors.
		for _, a := range accs {
			o := d.obj(a.Obj)
			if a.Kind == sim.AccessWrite {
				o.wIdx, o.wPID, o.wSC, o.wClk = int32(i), int8(p), scount[p], c
			} else {
				o.rIdx[p], o.rSC[p], o.rClk[p] = int32(i), scount[p], c
			}
		}
	}
}

// insertBacktrack requests that p be tried at the pre-state of step j: p
// itself if enabled there, otherwise every process enabled there (the
// standard conservative fallback).
func (d *dporSearch) insertBacktrack(j int, p sim.PID) {
	if j >= len(d.stack) {
		return // beyond MaxDepth: not a choice point
	}
	nd := &d.stack[j]
	if nd.enabled.Has(p) {
		nd.backtrack = nd.backtrack.Add(p)
	} else {
		nd.backtrack = nd.backtrack.Union(nd.enabled)
	}
}

// nextPrefix pops the search to the deepest node with an unexplored,
// non-sleeping backtrack candidate and returns the forced prefix of the
// next run. Sleeping candidates are marked done without execution — their
// interleavings are covered by an already-explored subtree — and counted
// as pruned schedules.
func (d *dporSearch) nextPrefix(prefix []sim.PID) ([]sim.PID, bool) {
	for i := len(d.stack) - 1; i >= 0; i-- {
		nd := &d.stack[i]
		for {
			cand := nd.backtrack.Minus(nd.done)
			if cand.IsEmpty() {
				break
			}
			q := cand.Min()
			nd.done = nd.done.Add(q)
			if sleepContains(nd.sleep, q) {
				d.pruned++
				continue
			}
			// Retire the current child into the sleep set of q's subtree.
			nd.slept = append(nd.slept, sleeper{p: nd.chosen, acc: nd.accesses})
			nd.chosen = q
			nd.accesses = nil
			d.stack = d.stack[:i+1]
			out := prefix[:0]
			for k := 0; k <= i; k++ {
				out = append(out, d.stack[k].chosen)
			}
			return out, true
		}
	}
	return nil, false
}
