package converge

import (
	"weakestfd/internal/memory"
	"weakestfd/internal/sim"
)

// Machine runs one k-converge call one atomic step at a time, for use
// inside sim.StepMachine protocol automata: it performs the four snapshot
// operations of the routine (see the package comment) in order, one per
// StepOp call on the one-step atomic snapshot and one register access per
// call on the Afek et al. construction, and parks its control state in
// between.
//
// One Machine is embedded per process automaton and reused across converge
// instances (Start rebinds it) and, through Reset, across runs. Its scan
// buffers are reused, and the value set that escapes into the shared
// round-2 snapshot is carved from storage the machine owns: a published set
// is never written again, and Reset reclaims the storage only when the
// whole run's shared state is reset with it.
type Machine struct {
	me   sim.PID
	log  *sim.AccessLog
	inst *Instance
	in   sim.Value
	vs   ValueSet
	pc   uint8

	opA   memory.SnapOp[sim.Value]
	opB   memory.SnapOp[proposal]
	scanA []memory.Opt[sim.Value]
	scanB []memory.Opt[proposal]
	// sets backs the value sets of this run's calls, one after another.
	sets []sim.Value

	// Picked and Committed hold the call's results once StepOp returned true
	// (or Start returned true for a 0-converge).
	Picked    sim.Value
	Committed bool

	// Adopt, when non-nil, replaces the round-2 adopt rule — what a
	// non-committing process picks when some scan entry proposes commit. The
	// correct rule (minimum of the smallest committing set) is what makes
	// C-Agreement hold; the hook exists solely for mutation testing: the
	// schedule-space explorer (internal/explore) proves it catches the broken
	// protocol variant built on a wrong adopt rule. Protocols never set it.
	Adopt func(in sim.Value, smallest ValueSet) sim.Value
}

// Reset returns the machine to its zero state for a new run, keeping its
// scan buffers, its set storage and its Adopt hook; a snapshot operation a
// run left in flight is dropped with its SnapOp. The value sets the machine
// published are reclaimed, so the snapshots holding them must be reset too.
func (m *Machine) Reset() {
	*m = Machine{
		scanA: m.scanA[:0],
		scanB: m.scanB[:0],
		sets:  m.sets[:0],
		Adopt: m.Adopt,
	}
}

// valueSet collects the distinct present values of a snapshot scan into a
// sorted set carved from the machine's set storage. It counts the present
// values first, so the set fits where it is carved and each value is
// inserted in place; the storage grows by doubling, so a fresh machine's
// first set takes one allocation and a reset machine's takes none.
func (m *Machine) valueSet(scan []memory.Opt[sim.Value]) ValueSet {
	present := memory.CountSome(scan)
	if cap(m.sets)-len(m.sets) < present {
		m.sets = make([]sim.Value, 0, max(2*cap(m.sets), present))
	}
	start := len(m.sets)
	vs := ValueSet(m.sets[start : start : start+present])
	for _, c := range scan {
		if c.OK {
			vs = vs.add(c.V)
		}
	}
	m.sets = m.sets[:start+len(vs)]
	return vs[:len(vs):len(vs)]
}

// Bind fixes the machine's process identity and the run's instrumentation
// (the access log; nil when the run is not recorded) from the enclosing
// automaton's context; call once from StepMachine.Init.
func (m *Machine) Bind(ctx sim.MachineContext) { m.me, m.log = ctx.ID, ctx.Log }

// Start prepares one Converge(inst, v) call. It returns true when the call
// completed without any atomic step — the 0-converge case, which by
// definition returns (v, false) immediately; otherwise the caller must drive
// StepOp until it returns true, spending one simulation step per call.
func (m *Machine) Start(inst *Instance, v sim.Value) (done bool) {
	if inst.k == 0 {
		m.Picked, m.Committed = v, false
		return true
	}
	m.inst = inst
	m.in = v
	m.pc = 0
	return false
}

// StepOp performs the call's next atomic step, returning true when the call
// has completed and Picked/Committed are valid.
func (m *Machine) StepOp() (done bool) {
	a, b := m.inst.a, m.inst.b
	switch m.pc {
	case 0: // round 1 update
		if a.DirectUpdate(m.log, &m.opA, m.me, m.in) {
			m.pc = 1
		}
	case 1: // round 1 scan
		if m.scanA, done = a.DirectScan(m.log, &m.opA, m.scanA[:0]); done {
			m.vs = m.valueSet(m.scanA)
			m.pc = 2
		}
	case 2: // round 2 update
		if b.DirectUpdate(m.log, &m.opB, m.me, proposal{set: m.vs, commit: len(m.vs) <= m.inst.k}) {
			m.pc = 3
		}
	case 3: // round 2 scan + result
		if m.scanB, done = b.DirectScan(m.log, &m.opB, m.scanB[:0]); !done {
			return false
		}
		allCommit := true
		var smallest ValueSet
		for _, e := range m.scanB {
			if !e.OK {
				continue
			}
			if !e.V.commit {
				allCommit = false
				continue
			}
			if smallest == nil || len(e.V.set) < len(smallest) {
				smallest = e.V.set
			}
		}
		switch {
		case allCommit:
			m.Picked, m.Committed = m.vs.Min(), true
		case smallest != nil:
			if m.Adopt != nil {
				m.Picked, m.Committed = m.Adopt(m.in, smallest), false
			} else {
				m.Picked, m.Committed = smallest.Min(), false
			}
		default:
			m.Picked, m.Committed = m.in, false
		}
		return true
	default:
		panic("converge: StepOp after completion")
	}
	return false
}
