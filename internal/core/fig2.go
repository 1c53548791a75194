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
	snaps   *snapSeries
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
		snaps:   newSnapSeries(n, impl),
	}
}

// K returns the agreement parameter f: at most f distinct decisions.
func (g *Fig2) K() int { return g.f }

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

// snapSeries lazily allocates the atomic snapshot objects A[r][k]. Like
// converge series, the identity includes the caller's |U| so that processes
// with divergent Υ^f views use distinct objects: snapshot [r][k] for |U| = u
// is identified by the key A[r][k]/u.
type snapSeries struct {
	n    int
	impl converge.Impl
	// snaps holds the snapshots created so far; a run touches only a few
	// rounds, so a short slice searched from its most recent end suffices.
	snaps []snapEntry
}

type snapEntry struct {
	r, k, usize int
	snap        memory.Snapshot[sim.Value]
}

// keyGladiator names the gladiator snapshots A[r][k]/|U|.
var keyGladiator = sim.NameOf("A").Key(sim.ObjGladiator)

func newSnapSeries(n int, impl converge.Impl) *snapSeries {
	return &snapSeries{n: n, impl: impl}
}

func (ss *snapSeries) at(r, k, usize int) memory.Snapshot[sim.Value] {
	for i := len(ss.snaps) - 1; i >= 0; i-- {
		if e := &ss.snaps[i]; e.r == r && e.k == k && e.usize == usize {
			return e.snap
		}
	}
	key := keyGladiator.WithRound(r).WithSub(k, usize)
	var s memory.Snapshot[sim.Value]
	if ss.impl == converge.UseAfek {
		s = memory.NewAfekSnapshot[sim.Value](key, ss.n)
	} else {
		s = memory.NewAtomicSnapshot[sim.Value](key, ss.n)
	}
	ss.snaps = append(ss.snaps, snapEntry{r: r, k: k, usize: usize, snap: s})
	return s
}
