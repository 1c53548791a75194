package core

import (
	"fmt"

	"weakestfd/internal/converge"
	"weakestfd/internal/memory"
	"weakestfd/internal/sim"
)

// Fig1 is the paper's Figure 1: the Υ-based protocol solving n-set agreement
// among n+1 processes using registers, tolerating n crashes (Theorem 2).
//
// Each round r:
//
//	line 4:     try (n)-converge[r]; a commit is written to the decision
//	            register D and decided.
//	line ~8:    otherwise query Υ; call the output U. Processes in U are
//	            gladiators, processes outside are citizens.
//	lines 12-17 (cyclic): a citizen writes its value to D[r] and proceeds to
//	            round r+1. A gladiator runs (|U|−1)-converge[r][k] for
//	            k = 1, 2, …, chaining picked values; a commit is written to
//	            D[r]. Every cycle the gladiator re-queries Υ; a changed
//	            output sets the shared flag Stable[r] (so named in the
//	            paper; it records that instability was observed). The cycle
//	            exits when Stable[r] is set, D[r] ≠ ⊥, or D ≠ ⊥.
//
// Processes leaving round r adopt D[r] when non-⊥; a non-⊥ D is decided
// immediately. Agreement needs only the top-level converge and D: the first
// committed (n)-converge pins all values ever written to D to at most n.
// Termination uses Υ: eventually U ≠ correct, so either some gladiator is
// faulty (the sub-converges shed a value) or some citizen is correct (it
// feeds D[r]).
//
// One Fig1 value holds the shared memory of one run; give each process a
// machine from Machine. Reset re-arms the memory and those machines for
// another run.
type Fig1 struct {
	n       int
	upsilon sim.Oracle
	top     *converge.Series // (n)-converge[r]
	sub     *converge.Series // (|U|−1)-converge[r][k]
	d       *memory.Register[memory.Opt[sim.Value]]
	rounds  *roundRegs
	// machines are the machines built from g, for Reset.
	machines []*fig1Machine
}

// NewFig1 builds the shared state for one run of the Figure 1 protocol for n
// processes (the paper's n+1) using the given Υ history. The protocol
// decides at most n−1 values (the paper's "at most n" with n+1 processes).
func NewFig1(n int, upsilon sim.Oracle, impl converge.Impl) *Fig1 {
	if n < 2 {
		panic(fmt.Sprintf("core: Fig1 needs ≥ 2 processes, got %d", n))
	}
	return &Fig1{
		n:       n,
		upsilon: upsilon,
		top:     converge.NewSeries(nameNConv, n, impl),
		sub:     converge.NewSeries(nameGConv, n, impl),
		d:       memory.NewRegister[memory.Opt[sim.Value]](keyD),
		rounds:  newRoundRegs(n),
		// Callers build one machine per process.
		machines: make([]*fig1Machine, 0, n),
	}
}

// The shared objects' base names and keys, resolved once per process so
// that building a run's shared state looks nothing up.
var (
	nameNConv = sim.NameOf("nconv")
	nameFConv = sim.NameOf("fconv")
	nameGConv = sim.NameOf("gconv")
	// keyD is the decision register D; keyDr and keyStable name the
	// per-round registers D[r] and Stable[r].
	keyD      = sim.KeyOf("D")
	keyDr     = sim.NameOf("D").Key(sim.ObjRound)
	keyStable = sim.NameOf("Stable").Key(sim.ObjRound)
)

// K returns the agreement parameter: the maximum number of distinct decision
// values, n−1 for n processes.
func (g *Fig1) K() int { return g.n - 1 }

// Reset returns the shared memory and every machine built from g to the
// state NewFig1 and Machine left them in, keeping their storage, so that
// one Fig1 can serve run after run. The Υ history is the caller's to
// re-arm.
func (g *Fig1) Reset() {
	g.top.Reset()
	g.sub.Reset()
	g.d.Reset()
	g.rounds.reset()
	for _, m := range g.machines {
		m.reset()
	}
}

// Decision returns the decision register's current content; for post-run
// inspection only.
func (g *Fig1) Decision() memory.Opt[sim.Value] { return g.d.Inspect() }

// roundRegs lazily allocates the per-round registers D[r] and Stable[r].
// Allocation is bookkeeping (no simulation steps). Rounds count up from 1,
// so the pairs are indexed by round directly.
type roundRegs struct {
	n     int
	pairs []*roundPair
}

type roundPair struct {
	dr     memory.Register[memory.Opt[sim.Value]]
	stable memory.Register[bool]
}

func newRoundRegs(n int) *roundRegs {
	return &roundRegs{n: n}
}

// reset empties every round's registers; their keys and IDs stay.
func (rr *roundRegs) reset() {
	for _, pair := range rr.pairs {
		if pair != nil {
			pair.dr.Reset()
			pair.stable.Reset()
		}
	}
}

func (rr *roundRegs) at(r int) (*memory.Register[memory.Opt[sim.Value]], *memory.Register[bool]) {
	for r >= len(rr.pairs) {
		rr.pairs = append(rr.pairs, nil)
	}
	pair := rr.pairs[r]
	if pair == nil {
		pair = &roundPair{
			dr:     *memory.NewRegister[memory.Opt[sim.Value]](keyDr.WithRound(r)),
			stable: *memory.NewRegister[bool](keyStable.WithRound(r)),
		}
		rr.pairs[r] = pair
	}
	return &pair.dr, &pair.stable
}
