package core

import (
	"weakestfd/internal/converge"
	"weakestfd/internal/fd"
	"weakestfd/internal/sim"
)

// Composition: Theorem 10 made operational. Because Figure 3 extracts Υ^f
// from any stable f-non-trivial detector D, and Figures 1/2 solve set
// agreement from Υ^f, chaining the two solves set agreement *using D* —
// whatever D is. Each process runs two parallel tasks (exactly the paper's
// multi-task processes): Task A executes the Figure 3 reduction against D,
// continuously maintaining the process's emulated Υ^f output variable;
// Task B executes the set-agreement protocol, and its Υ^f queries read the
// process's own emulated output variable — a process-local read, as in the
// model's definition of an emulated failure detector module.

// Emulated returns the extraction's output as a queryable oracle: the
// module output of process p at any time is p's current emulated output
// variable (Π until the first round entry initializes it). Query steps on
// this oracle read only p-local state, so the composition stays within the
// shared-memory model.
func (e *Extraction) Emulated() sim.Oracle {
	return fd.FuncOracle(func(p sim.PID, _ sim.Time) any {
		u := e.OutputAt(p)
		if u.IsEmpty() {
			return sim.FullSet(e.n)
		}
		return u
	})
}

// Composed bundles a Figure 3 extraction from a stable detector with a
// Figure 1 set-agreement protocol consuming the emulated Υ.
type Composed struct {
	extraction *Extraction
	protocol   *Fig1
}

// NewComposed builds the shared state for solving (n−1)-set agreement among
// n processes using stable detector d (with non-sample map phi) through the
// generic reduction.
func NewComposed(n int, d sim.Oracle, phi Phi, impl converge.Impl) *Composed {
	ex := NewExtraction(n, d, phi)
	return &Composed{
		extraction: ex,
		protocol:   NewFig1(n, ex.Emulated(), impl),
	}
}

// K returns the agreement bound, n−1.
func (c *Composed) K() int { return c.protocol.K() }

// Reset returns the shared memory of both halves and every machine built
// from them to the state NewComposed and the task sets left them in,
// keeping their storage, as Extraction.Reset and Fig1.Reset do. The
// detector history is the caller's to re-arm.
func (c *Composed) Reset() {
	c.extraction.Reset()
	c.protocol.Reset()
}

// Extraction exposes the reduction half (for output inspection).
func (c *Composed) Extraction() *Extraction { return c.extraction }
