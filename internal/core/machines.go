package core

import (
	"weakestfd/internal/converge"
	"weakestfd/internal/fd"
	"weakestfd/internal/memory"
	"weakestfd/internal/sim"
)

// The protocols as step machines, for sim.RunMachines. Each machine's
// program counter enumerates the atomic operations of the paper's pseudocode
// (register and snapshot accesses, detector queries), and every Step call
// performs exactly one of them followed by the process-local computation up
// to the next operation. A snapshot operation of the Afek et al.
// registers-only construction (converge.UseAfek) spans many steps: its site
// is re-entered, one register access per step, until the operation completes.
// The equivalence suite pins every machine's Reports across the scenario
// families.

// ---------------------------------------------------------------------------
// Figure 1

// fig1 machine program counter, one value per atomic operation site of the
// Figure 1 pseudocode.
const (
	f1ReadD        uint8 = iota // line 20 + round top: read decision register
	f1TopConv                   // line 4: top-level (n)-converge (4 ops)
	f1WriteD                    // commit: write D and decide
	f1QueryU                    // query Υ, enter the cycle
	f1CycleReadD                // cycle top: read D
	f1ReadStable                // condition (a): read Stable[r]
	f1ReadDr                    // condition (c): read D[r]; branch citizen/gladiator
	f1CitizenWrite              // citizen: write D[r]
	f1SubConv                   // gladiator: (|U|−1)-converge (4 ops)
	f1GladWrite                 // condition (b): gladiator commit to D[r]
	f1ReQuery                   // gladiator: re-query Υ
	f1StableWrite               // Υ changed: set Stable[r]
	f1LeaveReadDr               // leaving round r: adopt D[r]
)

type fig1Machine struct {
	g  *Fig1
	me sim.PID
	v  sim.Value
	r  int
	k  int
	u  sim.Set

	dr     *memory.Register[memory.Opt[sim.Value]]
	stable *memory.Register[bool]
	conv   converge.Machine
	log    *sim.AccessLog
	seam   *sim.QuerySeam
	pc     uint8

	// skipOnChange is the MutSkipOnChange mutation hook: a re-query that
	// observes a detector change skips ahead two rounds instead of writing
	// Stable[r]. Dead code under stable-from-0 histories (see mutant.go).
	skipOnChange bool
	// garbleDecide is the MutGarbledDecide mutation hook: the top-level
	// commit writes and decides v+garbleOffset (see mutant.go).
	garbleDecide bool
	// garbleEcho is the MutGarbledEcho mutation hook: the citizen writes
	// v+garbleOffset into D[r] instead of its value. Dead code while the
	// detector output names every process (see mutant.go).
	garbleEcho bool

	decision sim.Value
}

// Machine returns the Figure 1 automaton proposing the given value.
func (g *Fig1) Machine(input sim.Value) sim.StepMachine {
	return &fig1Machine{g: g, v: input}
}

func (m *fig1Machine) Init(ctx sim.MachineContext) {
	m.me = ctx.ID
	m.log = ctx.Log
	m.seam = ctx.Queries
	m.conv.Bind(ctx)
	m.r = 1
	m.pc = f1ReadD
}

func (m *fig1Machine) Decision() sim.Value { return m.decision }

func (m *fig1Machine) Step(t sim.Time) sim.MachineStatus {
	g := m.g
	switch m.pc {
	case f1ReadD:
		if d := g.d.DirectRead(m.log); d.OK {
			m.decision = d.V
			return sim.MachineDecided
		}
		m.conv.Start(g.top.At(m.r, 0, g.K()), m.v) // K() ≥ 1: never immediate
		m.pc = f1TopConv
	case f1TopConv:
		if m.conv.StepOp() {
			m.v = m.conv.Picked
			if m.conv.Committed {
				m.pc = f1WriteD
			} else {
				m.pc = f1QueryU
			}
		}
	case f1WriteD:
		if m.garbleDecide {
			m.v += garbleOffset
		}
		g.d.DirectWrite(m.log, memory.Some(m.v))
		m.decision = m.v
		return sim.MachineDecided
	case f1QueryU:
		m.u = fd.QueryAt[sim.Set](m.seam, g.upsilon, m.me, t)
		m.dr, m.stable = g.rounds.at(m.r)
		m.k = 1
		m.pc = f1CycleReadD
	case f1CycleReadD:
		if d := g.d.DirectRead(m.log); d.OK {
			m.decision = d.V
			return sim.MachineDecided
		}
		m.pc = f1ReadStable
	case f1ReadStable:
		if m.stable.DirectRead(m.log) {
			m.pc = f1LeaveReadDr // condition (a)
		} else {
			m.pc = f1ReadDr
		}
	case f1ReadDr:
		if w := m.dr.DirectRead(m.log); w.OK {
			m.v = w.V // condition (c)
			m.pc = f1LeaveReadDr
		} else if !m.u.Has(m.me) {
			m.pc = f1CitizenWrite
		} else if m.conv.Start(g.sub.At(m.r, m.k, m.u.Len()-1), m.v) {
			m.v = m.conv.Picked // 0-converge: picked = v, not committed
			m.pc = f1ReQuery
		} else {
			m.pc = f1SubConv
		}
	case f1CitizenWrite:
		echo := m.v
		if m.garbleEcho {
			echo += garbleOffset
		}
		m.dr.DirectWrite(m.log, memory.Some(echo))
		m.pc = f1LeaveReadDr
	case f1SubConv:
		if m.conv.StepOp() {
			m.v = m.conv.Picked
			if m.conv.Committed {
				m.pc = f1GladWrite // condition (b)
			} else {
				m.pc = f1ReQuery
			}
		}
	case f1GladWrite:
		m.dr.DirectWrite(m.log, memory.Some(m.v))
		m.pc = f1LeaveReadDr
	case f1ReQuery:
		if u2 := fd.QueryAt[sim.Set](m.seam, g.upsilon, m.me, t); u2 != m.u {
			if m.skipOnChange {
				// MutSkipOnChange: treat the change as "this round is stale"
				// and fast-forward past the next round's converge instead of
				// publishing Stable[r] and adopting D[r].
				m.r += 2
				m.pc = f1ReadD
			} else {
				m.pc = f1StableWrite
			}
		} else {
			m.k++
			m.pc = f1CycleReadD
		}
	case f1StableWrite:
		m.stable.DirectWrite(m.log, true)
		m.pc = f1LeaveReadDr
	case f1LeaveReadDr:
		if w := m.dr.DirectRead(m.log); w.OK {
			m.v = w.V
		}
		m.r++
		m.pc = f1ReadD
	}
	return sim.MachineRunning
}

// ---------------------------------------------------------------------------
// Figure 2

const (
	f2ReadD uint8 = iota
	f2TopConv
	f2WriteD
	f2QueryU
	f2CycleReadD
	f2ReadStable
	f2ReadDr
	f2CitizenWrite
	f2SnapUpdate     // line 16: update A[r][k]
	f2SnapScan       // lines 17-19: scan A[r][k]
	f2WaitReadD      // wait-loop escape: read D
	f2WaitReadDr     // wait-loop escape: read D[r]
	f2WaitReadStable // wait-loop escape: read Stable[r]
	f2WaitQuery      // wait-loop escape: re-query Υ^f
	f2SubConv        // line 26: (|U|+f−n−1)-converge
	f2GladWrite
	f2ReQuery
	f2StableWrite
	f2LeaveReadDr
)

type fig2Machine struct {
	g  *Fig2
	me sim.PID
	v  sim.Value
	r  int
	k  int
	u  sim.Set

	dr     *memory.Register[memory.Opt[sim.Value]]
	stable *memory.Register[bool]
	snap   memory.Snapshot[sim.Value]
	snapOp memory.SnapOp[sim.Value]
	scan   []memory.Opt[sim.Value]
	conv   converge.Machine
	log    *sim.AccessLog
	seam   *sim.QuerySeam
	pc     uint8

	// minEntries is the gladiator scan threshold of lines 17-19 — the
	// paper's n+1−f for the real protocol, perturbed by the Fig2 mutations
	// (see mutant.go).
	minEntries int
	// skipOnChange is the MutF2SkipOnChange mutation hook: a re-query that
	// observes a detector change skips ahead two rounds instead of writing
	// Stable[r]. Dead code under stable-from-0 histories (see mutant.go).
	skipOnChange bool

	decision sim.Value
}

// Machine returns the Figure 2 automaton proposing the given value.
func (g *Fig2) Machine(input sim.Value) sim.StepMachine {
	return &fig2Machine{g: g, v: input, minEntries: g.n - g.f}
}

func (m *fig2Machine) Init(ctx sim.MachineContext) {
	m.me = ctx.ID
	m.log = ctx.Log
	m.seam = ctx.Queries
	m.conv.Bind(ctx)
	m.r = 1
	m.pc = f2ReadD
}

func (m *fig2Machine) Decision() sim.Value { return m.decision }

func (m *fig2Machine) Step(t sim.Time) sim.MachineStatus {
	g := m.g
	switch m.pc {
	case f2ReadD:
		if d := g.d.DirectRead(m.log); d.OK {
			m.decision = d.V
			return sim.MachineDecided
		}
		m.conv.Start(g.top.At(m.r, 0, g.f), m.v) // f ≥ 1: never immediate
		m.pc = f2TopConv
	case f2TopConv:
		if m.conv.StepOp() {
			m.v = m.conv.Picked
			if m.conv.Committed {
				m.pc = f2WriteD
			} else {
				m.pc = f2QueryU
			}
		}
	case f2WriteD:
		g.d.DirectWrite(m.log, memory.Some(m.v))
		m.decision = m.v
		return sim.MachineDecided
	case f2QueryU:
		m.u = fd.QueryAt[sim.Set](m.seam, g.upsilon, m.me, t)
		m.dr, m.stable = g.rounds.at(m.r)
		m.k = 1
		m.pc = f2CycleReadD
	case f2CycleReadD:
		if d := g.d.DirectRead(m.log); d.OK {
			m.decision = d.V
			return sim.MachineDecided
		}
		m.pc = f2ReadStable
	case f2ReadStable:
		if m.stable.DirectRead(m.log) {
			m.pc = f2LeaveReadDr
		} else {
			m.pc = f2ReadDr
		}
	case f2ReadDr:
		if w := m.dr.DirectRead(m.log); w.OK { // line 23
			m.v = w.V
			m.pc = f2LeaveReadDr
		} else if !m.u.Has(m.me) {
			m.pc = f2CitizenWrite // line 11
		} else {
			m.snap = g.snaps.at(m.r, m.k, m.u.Len())
			m.pc = f2SnapUpdate
		}
	case f2CitizenWrite:
		m.dr.DirectWrite(m.log, memory.Some(m.v))
		m.pc = f2LeaveReadDr
	case f2SnapUpdate:
		if m.snap.DirectUpdate(m.log, &m.snapOp, m.me, m.v) { // line 16
			m.pc = f2SnapScan
		}
	case f2SnapScan:
		var done bool
		if m.scan, done = m.snap.DirectScan(m.log, &m.snapOp, m.scan[:0]); !done {
			break
		}
		if memory.CountSome(m.scan) >= m.minEntries {
			m.v = minValue(m.scan) // line 25
			param := m.u.Len() + g.f - g.n
			if m.conv.Start(g.sub.At(m.r, m.k, param), m.v) {
				m.v = m.conv.Picked // 0-converge
				m.pc = f2ReQuery
			} else {
				m.pc = f2SubConv
			}
		} else {
			m.pc = f2WaitReadD
		}
	case f2WaitReadD:
		if d := g.d.DirectRead(m.log); d.OK {
			m.decision = d.V
			return sim.MachineDecided
		}
		m.pc = f2WaitReadDr
	case f2WaitReadDr:
		if w := m.dr.DirectRead(m.log); w.OK {
			m.v = w.V
			m.pc = f2LeaveReadDr
		} else {
			m.pc = f2WaitReadStable
		}
	case f2WaitReadStable:
		if m.stable.DirectRead(m.log) {
			m.pc = f2LeaveReadDr
		} else {
			m.pc = f2WaitQuery
		}
	case f2WaitQuery:
		if u2 := fd.QueryAt[sim.Set](m.seam, g.upsilon, m.me, t); u2 != m.u {
			if m.skipOnChange {
				// MutF2SkipOnChange: fast-forward past the next round's
				// converge instead of publishing Stable[r] and adopting D[r].
				m.r += 2
				m.pc = f2ReadD
			} else {
				m.pc = f2StableWrite
			}
		} else {
			m.pc = f2SnapScan
		}
	case f2SubConv:
		if m.conv.StepOp() {
			m.v = m.conv.Picked
			if m.conv.Committed {
				m.pc = f2GladWrite
			} else {
				m.pc = f2ReQuery
			}
		}
	case f2GladWrite:
		m.dr.DirectWrite(m.log, memory.Some(m.v))
		m.pc = f2LeaveReadDr
	case f2ReQuery:
		if u2 := fd.QueryAt[sim.Set](m.seam, g.upsilon, m.me, t); u2 != m.u {
			if m.skipOnChange {
				// MutF2SkipOnChange: as above, skip two rounds on a change.
				m.r += 2
				m.pc = f2ReadD
			} else {
				m.pc = f2StableWrite
			}
		} else {
			m.k++
			m.pc = f2CycleReadD
		}
	case f2StableWrite:
		m.stable.DirectWrite(m.log, true)
		m.pc = f2LeaveReadDr
	case f2LeaveReadDr:
		if w := m.dr.DirectRead(m.log); w.OK { // line 33
			m.v = w.V
		}
		m.r++
		m.pc = f2ReadD
	}
	return sim.MachineRunning
}

// ---------------------------------------------------------------------------
// Figure 3 (extraction)

const (
	exInitQuery         uint8 = iota // Task 1: query D
	exInitWrite                      // Task 1: publish (value, timestamp)
	exRoundOut                       // round entry: output ← Π
	exChangedRead                    // loop top: read Changed[r]
	exD2Query                        // interleaved Task 1: query
	exD2Write                        // interleaved Task 1: publish
	exChangedWriteBreak              // differing own report: set Changed[r], leave loop
	exReadReports                    // read R[j], tracking freshness
	exChangedWriteCont               // differing published report: set Changed[r], keep scanning
	exExitedReadMe                   // line 15: read own Exited[r] entry
	exExitedReadJ                    // line 15: scan Exited[r][j]
	exExitedWrite                    // line 19: write Exited[r]
	exOutWrite                       // output ← S
	exExitQuery                      // round exit: adopt the freshest value (query)
	exExitWrite                      // round exit: publish
)

type extractionMachine struct {
	e    *Extraction
	me   sim.PID
	full sim.Set
	ts   int64
	last []int64 // lastTS: freshness horizon per process

	d       any // round-entry detector value
	d2      any // freshly published value
	r       int
	s       sim.Set
	w       int
	changed *memory.Register[bool]
	exited  *memory.Array[memory.Opt[any]]
	batches int
	fresh   []int
	sSet    bool
	sawB    bool
	j       int
	log     *sim.AccessLog
	seam    *sim.QuerySeam
	pc      uint8
	// wrote is the output this process wrote last (the register's initial
	// zero value before its first write).
	wrote sim.Set

	// mut perturbs the output writes and re-query sites (see mutant.go);
	// MutExNone is the real reduction.
	mut ExtractMutation
}

// Machine returns the Figure 3 reduction automaton; it never returns.
func (e *Extraction) Machine() sim.StepMachine {
	return &extractionMachine{e: e}
}

func (m *extractionMachine) Init(ctx sim.MachineContext) {
	m.me = ctx.ID
	m.log = ctx.Log
	m.seam = ctx.Queries
	m.full = sim.FullSet(m.e.n)
	m.last = make([]int64, m.e.n)
	m.fresh = make([]int, m.e.n)
	m.pc = exInitQuery
}

func (m *extractionMachine) Decision() sim.Value { return 0 }

// afterReports runs the local post-scan logic of the publish/collect loop and
// sets the next operation.
func (m *extractionMachine) afterReports() {
	if m.s == m.full || m.sSet {
		m.pc = exChangedRead // line 21: just watch for a differing report
		return
	}
	if m.sawB {
		m.batches++
		for j := range m.fresh {
			m.fresh[j] = 0
		}
	}
	if m.batches < m.w {
		m.pc = exExitedReadMe
		return
	}
	m.pc = exExitedWrite
}

// afterExited routes control after the Exited[r] read chain.
func (m *extractionMachine) afterExited() {
	if m.batches >= m.w {
		m.pc = exExitedWrite
	} else {
		m.pc = exChangedRead
	}
}

// writeOutput writes the process's emulated output at step t. The register
// has no other writer, so its value changes exactly when v differs from the
// value written last, and the writer records t as the change.
func (m *extractionMachine) writeOutput(t sim.Time, v sim.Set) {
	m.e.out.DirectWrite(m.log, m.me, v)
	if v != m.wrote {
		m.wrote = v
		m.e.changedAt[m.me] = t
	}
}

func (m *extractionMachine) Step(t sim.Time) sim.MachineStatus {
	e := m.e
	switch m.pc {
	case exInitQuery:
		m.d = m.seam.Query(e.d, m.me, t)
		m.ts++
		m.pc = exInitWrite
	case exInitWrite:
		e.r.DirectWrite(m.log, m.me, report{val: m.d, ts: m.ts})
		m.r = 1
		m.pc = exRoundOut
	case exRoundOut:
		m.writeOutput(t, m.full) // lines 7-10
		m.s, m.w = e.phi(m.d)
		m.changed, m.exited = e.rounds.at(m.r)
		m.batches = 0
		for j := range m.fresh {
			m.fresh[j] = 0
		}
		m.sSet = false
		m.pc = exChangedRead
	case exChangedRead:
		if m.changed.DirectRead(m.log) {
			m.pc = exExitQuery
		} else {
			m.pc = exD2Query
		}
	case exD2Query:
		if m.mut == MutExStaleLeader {
			m.d2 = m.d // latch: republish the round-entry value
		} else {
			m.d2 = m.seam.Query(e.d, m.me, t)
		}
		m.ts++
		m.pc = exD2Write
	case exD2Write:
		e.r.DirectWrite(m.log, m.me, report{val: m.d2, ts: m.ts})
		if m.d2 != m.d {
			m.pc = exChangedWriteBreak
		} else {
			m.j = 0
			m.sawB = true
			m.pc = exReadReports
		}
	case exChangedWriteBreak:
		m.changed.DirectWrite(m.log, true)
		m.pc = exExitQuery
	case exReadReports:
		rep := e.r.DirectRead(m.log, sim.PID(m.j))
		differs := false
		if rep.ts > m.last[m.j] {
			if rep.val != m.d {
				differs = true
			}
			m.fresh[m.j] += int(rep.ts - m.last[m.j])
			m.last[m.j] = rep.ts
		}
		if m.fresh[m.j] < 2 {
			m.sawB = false
		}
		m.j++
		switch {
		case differs:
			m.pc = exChangedWriteCont
		case m.j < e.n:
			// stay on exReadReports
		default:
			m.afterReports()
		}
	case exChangedWriteCont:
		m.changed.DirectWrite(m.log, true)
		if m.j < e.n {
			m.pc = exReadReports
		} else {
			m.afterReports()
		}
	case exExitedReadMe:
		if ex := m.exited.DirectRead(m.log, m.me); ex.OK && ex.V == m.d {
			m.batches = m.w
			m.afterExited()
		} else {
			m.j = 0
			m.pc = exExitedReadJ
			if m.j >= e.n || m.batches >= m.w {
				m.afterExited()
			}
		}
	case exExitedReadJ:
		if ex := m.exited.DirectRead(m.log, sim.PID(m.j)); ex.OK && ex.V == m.d {
			m.batches = m.w
		}
		m.j++
		if m.j < e.n && m.batches < m.w {
			// stay on exExitedReadJ
		} else {
			m.afterExited()
		}
	case exExitedWrite:
		m.exited.DirectWrite(m.log, m.me, memory.Some[any](m.d)) // line 19
		m.pc = exOutWrite
	case exOutWrite:
		out := m.s
		switch m.mut {
		case MutExFullOutput:
			out = m.full
		case MutExEmptyOutput:
			out = sim.EmptySet
		}
		m.writeOutput(t, out)
		m.sSet = true
		m.pc = exChangedRead
	case exExitQuery:
		// MutExStaleLeader skips the re-query, keeping the latched value.
		if m.mut != MutExStaleLeader {
			m.d = m.seam.Query(e.d, m.me, t)
		}
		m.ts++
		m.pc = exExitWrite
	case exExitWrite:
		e.r.DirectWrite(m.log, m.me, report{val: m.d, ts: m.ts})
		m.r++
		m.pc = exRoundOut
	}
	return sim.MachineRunning
}

// ---------------------------------------------------------------------------
// Heartbeat Υ implementation

const (
	hbInitWrite uint8 = iota // initial output write
	hbTick                   // heartbeat increment
	hbCollect                // collect one heartbeat register
	hbOutWrite               // publish a new suspicion set
	hbYield                  // quiescent no-op step
)

type heartbeatMachine struct {
	h         *HeartbeatUpsilon
	me        sim.PID
	lastSeen  []int64
	staleFor  []int64
	threshold []int64
	beats     []int64
	ticks     int64
	suspected sim.Set
	u         sim.Set
	j         int
	log       *sim.AccessLog
	pc        uint8
}

// Machine returns the heartbeat task; it never returns.
func (h *HeartbeatUpsilon) Machine() sim.StepMachine {
	return &heartbeatMachine{h: h}
}

func (m *heartbeatMachine) Init(ctx sim.MachineContext) {
	m.me = ctx.ID
	m.log = ctx.Log
	m.lastSeen = make([]int64, m.h.n)
	m.staleFor = make([]int64, m.h.n)
	m.threshold = make([]int64, m.h.n)
	for j := range m.threshold {
		m.threshold[j] = m.h.initialThreshold
	}
	m.beats = make([]int64, m.h.n)
	m.pc = hbInitWrite
}

func (m *heartbeatMachine) Decision() sim.Value { return 0 }

func (m *heartbeatMachine) Step(_ sim.Time) sim.MachineStatus {
	h := m.h
	switch m.pc {
	case hbInitWrite:
		h.out.DirectWrite(m.log, m.me, sim.SetOf(0))
		m.pc = hbTick
	case hbTick:
		m.ticks++
		h.hb.DirectWrite(m.log, m.me, m.ticks)
		m.j = 0
		m.pc = hbCollect
	case hbCollect:
		m.beats[m.j] = h.hb.DirectRead(m.log, sim.PID(m.j))
		m.j++
		if m.j < h.n {
			break
		}
		// Collect complete: run the suspicion update locally.
		changed := false
		for j := 0; j < h.n; j++ {
			if sim.PID(j) == m.me {
				continue
			}
			if m.beats[j] != m.lastSeen[j] {
				m.lastSeen[j] = m.beats[j]
				m.staleFor[j] = 0
				if m.suspected.Has(sim.PID(j)) {
					m.suspected = m.suspected.Remove(sim.PID(j))
					m.threshold[j] *= 2
					changed = true
				}
				continue
			}
			m.staleFor[j]++
			if m.staleFor[j] >= m.threshold[j] && !m.suspected.Has(sim.PID(j)) {
				m.suspected = m.suspected.Add(sim.PID(j))
				changed = true
			}
		}
		m.u = m.suspected
		if m.u.IsEmpty() {
			m.u = sim.SetOf(0)
		}
		// Inspecting the own output register is process-local knowledge
		// (only this process writes it), so it is not a recorded access:
		// it cannot conflict with any other process's step.
		//lint:fdlint accesscheck -- single-writer register owned by this process; unrecorded reads of it cannot create a missed dependency
		if changed || h.out.At(m.me).Inspect() != m.u {
			m.pc = hbOutWrite
		} else {
			m.pc = hbYield
		}
	case hbOutWrite:
		h.out.DirectWrite(m.log, m.me, m.u)
		m.pc = hbTick
	case hbYield:
		// One no-op step: waiting consumes schedule steps.
		m.pc = hbTick
	}
	return sim.MachineRunning
}

// ---------------------------------------------------------------------------
// Compositions

// MachineTaskSets returns the two tasks of every process for
// sim.TaskMachines: the reduction machine, then the agreement machine
// proposing the given value.
func (c *Composed) MachineTaskSets(proposals []sim.Value) []sim.MachineTaskSet {
	out := make([]sim.MachineTaskSet, len(proposals))
	for i := range out {
		out[i] = sim.MachineTaskSet{
			c.extraction.Machine(),
			c.protocol.Machine(proposals[i]),
		}
	}
	return out
}

// MachineTaskSets returns the two tasks of every process for
// sim.TaskMachines: the heartbeat machine, then the Figure 1 machine.
func (c *TimedComposed) MachineTaskSets(proposals []sim.Value) []sim.MachineTaskSet {
	out := make([]sim.MachineTaskSet, len(proposals))
	for i := range out {
		out[i] = sim.MachineTaskSet{
			c.impl.Machine(),
			c.protocol.Machine(proposals[i]),
		}
	}
	return out
}
