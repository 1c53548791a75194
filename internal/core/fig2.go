package core

import (
	"fmt"

	"weakestfd/internal/converge"
	"weakestfd/internal/memory"
	"weakestfd/internal/sim"
)

// Fig2 is the paper's Figure 2: the Υ^f-based protocol solving f-set
// agreement among n+1 processes in the environment E_f (at most f crashes),
// using registers and atomic snapshots (Theorem 6).
//
// The skeleton follows Figure 1 with (f)-converge[r] at the top (line 4).
// The difference is in the gladiator sub-round (r, k), lines 15-30: Υ^f
// outputs sets U of size ≥ n+1−f, so the |U| gladiators must shed down to
// |U|+f−n−1 values (so that, with the ≤ n+1−|U| citizen values, at most f
// values survive). To do so each gladiator:
//
//	line 16:    updates its value into the atomic snapshot A[r][k];
//	lines 17-19: repeatedly scans A[r][k] until the scan holds at least
//	            n+1−f non-⊥ values (escaping if D[r], D or Stable[r] fires);
//	line 25:    adopts the minimum value of its scan — scans are related by
//	            containment, and with at least one faulty gladiator they
//	            hold between n+1−f and |U|−1 values, so at most
//	            |U|+f−n−1 distinct minima arise;
//	line 26:    runs (|U|+f−n−1)-converge[r][k]; a commit is written to D[r].
//
// Agreement needs only the top-level (f)-converge and D; termination follows
// Theorem 6's case analysis on the eventual output U ≠ correct.
type Fig2 struct {
	n       int
	f       int
	upsilon sim.Oracle
	impl    converge.Impl
	top     *converge.Series
	sub     *converge.Series
	d       *memory.Register[memory.Opt[sim.Value]]
	rounds  *roundRegs
	snaps   *memory.Family[memory.Snapshot[sim.Value], gladiators]
	// machines are the machines built from g, for Reset.
	machines []*fig2Machine
}

// NewFig2 builds the shared state for one run of the Figure 2 protocol for n
// processes with resilience f (1 ≤ f ≤ n−1), using the given Υ^f history.
func NewFig2(n, f int, upsilon sim.Oracle, impl converge.Impl) *Fig2 {
	if n < 2 {
		panic(fmt.Sprintf("core: Fig2 needs ≥ 2 processes, got %d", n))
	}
	if f < 1 || f >= n {
		panic(fmt.Sprintf("core: Fig2 resilience f=%d out of range for n=%d", f, n))
	}
	return &Fig2{
		n:       n,
		f:       f,
		upsilon: upsilon,
		impl:    impl,
		top:     converge.NewSeries(nameFConv, n, impl),
		sub:     converge.NewSeries(nameGConv, n, impl),
		d:       memory.NewRegister[memory.Opt[sim.Value]](keyD),
		rounds:  newRoundRegs(n),
		snaps:   memory.NewFamily[memory.Snapshot[sim.Value]](keyGladiator, gladiators{n: n, impl: impl}),
		// Callers build one machine per process.
		machines: make([]*fig2Machine, 0, n),
	}
}

// K returns the agreement parameter f: at most f distinct decisions.
func (g *Fig2) K() int { return g.f }

// Reset returns the shared memory and every machine built from g to the
// state NewFig2 and Machine left them in, keeping their storage, as
// Fig1.Reset does.
func (g *Fig2) Reset() {
	g.top.Reset()
	g.sub.Reset()
	g.d.Reset()
	g.rounds.reset()
	g.snaps.Reset()
	for _, m := range g.machines {
		m.reset()
	}
}

// Decision returns the decision register's current content; for post-run
// inspection only.
func (g *Fig2) Decision() memory.Opt[sim.Value] { return g.d.Inspect() }

func minValue(scan []memory.Opt[sim.Value]) sim.Value {
	best := sim.Value(0)
	found := false
	for _, c := range scan {
		if c.OK && (!found || c.V < best) {
			best = c.V
			found = true
		}
	}
	if !found {
		panic("core: minValue of empty scan")
	}
	return best
}

// gladiators makes the atomic snapshot objects A[r][k] of n processes on
// impl. Like converge series, the identity includes the caller's |U| so that
// processes with divergent Υ^f views use distinct objects: snapshot [r][k]
// for |U| = u is At(r, k, u) of the family, identified by the key A[r][k]/u.
type gladiators struct {
	n    int
	impl converge.Impl
}

func (b gladiators) Make(key sim.ObjKey, _ int) memory.Snapshot[sim.Value] {
	if b.impl == converge.UseAfek {
		return memory.NewAfekSnapshot[sim.Value](key, b.n)
	}
	return memory.NewAtomicSnapshot[sim.Value](key, b.n)
}

func (gladiators) Rearm(s memory.Snapshot[sim.Value], key sim.ObjKey, _ int) { s.Reset(key) }

// keyGladiator names the gladiator snapshots A[r][k]/|U|.
var keyGladiator = sim.NameOf("A").Key(sim.ObjGladiator)
