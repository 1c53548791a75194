package core

import (
	"fmt"

	"weakestfd/internal/fd"
	"weakestfd/internal/memory"
	"weakestfd/internal/sim"
)

// This file implements the explicit reductions of Sections 4 and 5.3:
// Ω → Υ and Υ → Ω for two processes (where the two detectors are
// equivalent), and the Υ¹ → Ω extraction in the environment E_1, which uses
// shared heartbeat registers.

// ComplementOfOmega builds the local reduction Ω → Υ: every process outputs
// Π minus its Ω leader. Eventually the leader is the same correct process ℓ
// everywhere, and Π−{ℓ} misses a correct process, so it cannot be the
// correct set. For two processes this is the paper's Section 4 equivalence
// direction Ω ⇒ Υ; it is legal for every n.
func ComplementOfOmega(omega sim.Oracle, n int) sim.Oracle {
	return fd.FuncOracle(func(p sim.PID, t sim.Time) any {
		//lint:fdlint seamcheck -- history transformer: defines the derived Υ history pointwise from Ω; the derived output is what machines observe, and they observe it through the seam
		out := omega.Value(p, t)
		l, ok := out.(sim.PID)
		if !ok {
			panic(fmt.Sprintf("core: Ω output has type %T, want sim.PID", out))
		}
		return sim.SetOf(l).Complement(n)
	})
}

// OmegaFromUpsilon2 builds the local two-process reduction Υ → Ω (Section
// 4): a process outputs the complement of the Υ output when that output is a
// singleton, and its own identifier otherwise. With two processes, Υ's
// eventual output U ≠ correct leaves only two cases: U = {q} means the other
// process is correct (so elect it); U = {p1, p2} means exactly one process
// is correct (so the one correct process electing itself is a stable correct
// leader at every correct process).
func OmegaFromUpsilon2(upsilon sim.Oracle) sim.Oracle {
	return fd.FuncOracle(func(p sim.PID, t sim.Time) any {
		//lint:fdlint seamcheck -- history transformer: defines the derived Ω history pointwise from Υ; machines observe the derived history through the seam
		out := upsilon.Value(p, t)
		u, ok := out.(sim.Set)
		if !ok {
			panic(fmt.Sprintf("core: Υ output has type %T, want sim.Set", out))
		}
		if u.Len() == 1 {
			return u.Complement(2).Min()
		}
		return p
	})
}

// Upsilon1ToOmega is the Section 5.3 extraction of Ω = Ω¹ from Υ¹ in the
// environment E_1 (at most one crash). Every process periodically writes an
// ever-growing timestamp; when Υ¹ outputs a proper subset U (size n), the
// elected leader is the single process Π−U, which must be correct (were it
// faulty, correct ⊆ U with |correct| ≥ n = |U| would force U = correct);
// when Υ¹ outputs Π, exactly one process is faulty, its timestamp freezes,
// and the leader is the smallest id among the n processes with the highest
// timestamps.
//
// The emulated Ω output is published per process in the returned array.
type Upsilon1ToOmega struct {
	n       int
	upsilon sim.Oracle
	hb      *memory.Array[int64]
	out     *memory.Array[memory.Opt[sim.PID]]
}

// NewUpsilon1ToOmega builds the shared state of one reduction run.
func NewUpsilon1ToOmega(n int, upsilon sim.Oracle) *Upsilon1ToOmega {
	if n < 2 {
		panic(fmt.Sprintf("core: Upsilon1ToOmega needs n ≥ 2, got %d", n))
	}
	return &Upsilon1ToOmega{
		n:       n,
		upsilon: upsilon,
		hb:      memory.NewArray[int64](keyHeartbeats, n),
		out:     memory.NewArray[memory.Opt[sim.PID]](keyOmegaOut, n),
	}
}

// keyOmegaOut names the reduction's emulated Ω output array.
var keyOmegaOut = sim.KeyOf("Ω-output")

// OutputAt returns process i's current emulated Ω output; for inspection
// between steps only.
func (u *Upsilon1ToOmega) OutputAt(i sim.PID) memory.Opt[sim.PID] { return u.out.At(i).Inspect() }

// Machine returns the reduction automaton for one process; it never returns.
// Each iteration writes a fresh heartbeat, queries Υ¹, collects the
// heartbeats when Υ¹ outputs Π, and publishes the elected leader.
func (u *Upsilon1ToOmega) Machine() sim.StepMachine {
	return &upsilon1Machine{u: u, beats: make([]int64, u.n)}
}

const (
	u1WriteHB  uint8 = iota // publish a fresh heartbeat
	u1Query                 // query Υ¹
	u1Collect               // read one heartbeat register
	u1WriteOut              // publish the leader
)

type upsilon1Machine struct {
	u      *Upsilon1ToOmega
	me     sim.PID
	ts     int64
	beats  []int64
	j      int
	leader sim.PID
	log    *sim.AccessLog
	seam   *sim.QuerySeam
	pc     uint8
}

func (m *upsilon1Machine) Init(ctx sim.MachineContext) {
	m.me, m.log, m.seam = ctx.ID, ctx.Log, ctx.Queries
}

func (m *upsilon1Machine) Decision() sim.Value { return 0 }

func (m *upsilon1Machine) Step(t sim.Time) sim.MachineStatus {
	u := m.u
	switch m.pc {
	case u1WriteHB:
		m.ts++
		u.hb.DirectWrite(m.log, m.me, m.ts)
		m.pc = u1Query
	case u1Query:
		if set := fd.QueryAt[sim.Set](m.seam, u.upsilon, m.me, t); set.Len() < u.n {
			m.leader = set.Complement(u.n).Min()
			m.pc = u1WriteOut
		} else {
			m.j = 0
			m.pc = u1Collect
		}
	case u1Collect:
		m.beats[m.j] = u.hb.DirectRead(m.log, sim.PID(m.j))
		if m.j++; m.j == u.n {
			m.leader = freshest(m.beats, u.n-1).Min()
			m.pc = u1WriteOut
		}
	case u1WriteOut:
		u.out.DirectWrite(m.log, m.me, memory.Some(m.leader))
		m.pc = u1WriteHB
	}
	return sim.MachineRunning
}
