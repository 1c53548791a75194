package agreement

import (
	"fmt"

	"weakestfd/internal/converge"
	"weakestfd/internal/memory"
	"weakestfd/internal/sim"
)

// BoostedConsensus solves consensus among n+1 processes using n-process
// consensus objects, registers, and Ωn — the task on the *other* side of
// the paper's Corollary 4. Ωn is sufficient for it (Yang–Neiger–Gafni, the
// paper's [21]) and necessary (Guerraoui–Kuznetsov, the paper's [13]);
// together with Theorems 1 and 2 that yields the separation: set agreement
// from registers needs strictly less failure information (Υ) than this
// task does (Ωn).
//
// Algorithm, round r:
//
//  1. Processes that currently see themselves inside the Ωn output L funnel
//     their value through the n-process consensus object Cons[r][L] — keyed
//     by L itself, so each object is accessed by at most |L| = n processes
//     even while detector views diverge — and announce the object's
//     decision in Announce[r][i].
//  2. Everyone adopts the first announcement by a member of its current L.
//  3. Everyone runs 1-converge[r]; a commit is posted to the decision
//     register and decided.
//
// Safety is the usual converge chain; liveness follows once Ωn stabilizes
// on one set L with a correct member: a single consensus object funnels the
// members to one value, everyone adopts it, and 1-converge commits.
type BoostedConsensus struct {
	n      int
	omegaN sim.Oracle
	cons   *memory.ConsFamily
	conv   *converge.Series
	d      *memory.Register[memory.Opt[sim.Value]]
	ann    *lazyArrays
}

// NewBoostedConsensus builds the shared state for one run over n processes
// (the paper's n+1), with consensus objects of capacity n−1 (the paper's n).
func NewBoostedConsensus(n int, omegaN sim.Oracle, impl converge.Impl) *BoostedConsensus {
	if n < 2 {
		panic(fmt.Sprintf("agreement: BoostedConsensus n=%d", n))
	}
	return &BoostedConsensus{
		n:      n,
		omegaN: omegaN,
		cons:   memory.NewConsFamily(sim.KeyOf("Cons"), n-1),
		conv:   converge.NewSeries(sim.NameOf("boost"), n, impl),
		d:      memory.NewRegister[memory.Opt[sim.Value]](keyD),
		ann:    newLazyArrays(n),
	}
}

// Objects exposes the consensus-object family for post-run verification.
func (b *BoostedConsensus) Objects() *memory.ConsFamily { return b.cons }
