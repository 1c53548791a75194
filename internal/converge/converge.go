// Package converge implements the k-converge routine the paper borrows from
// Yang, Neiger and Gafni ("Structured derivations of consensus algorithms
// for failure detectors", PODC 1998 — the paper's [21]).
//
// A process calls k-converge with an input value and gets back a picked
// value and a commit flag, with the properties (paper Section 5.1):
//
//	C-Termination: every correct process picks some value.
//	C-Validity:    a picked value is some process's input.
//	C-Agreement:   if some process commits, at most k values are picked.
//	Convergence:   if at most k distinct values are input, every process
//	               that picks also commits.
//
// By definition 0-converge(v) always returns (v, false).
//
// The implementation uses two atomic-snapshot rounds. Round 1: write the
// input, scan, and let V be the distinct values seen; propose commit iff
// |V| ≤ k. Round 2: write (V, commit), scan; if every entry proposes commit,
// return (min V, committed); if some entry proposes commit, adopt the
// minimum of the smallest committing set; otherwise keep the input. Because
// snapshot scans are related by containment, the V-sets form a chain: all
// values picked when anyone commits lie in the largest committing set, which
// has at most k elements.
package converge

import (
	"fmt"
	"slices"

	"weakestfd/internal/memory"
	"weakestfd/internal/sim"
)

// ValueSet is a sorted set of distinct values.
type ValueSet []sim.Value

// add inserts v in order unless it is present, in place when vs has the
// capacity.
func (vs ValueSet) add(v sim.Value) ValueSet {
	i, found := slices.BinarySearch(vs, v)
	if found {
		return vs
	}
	return slices.Insert(vs, i, v)
}

// Min returns the smallest value; it panics on an empty set.
func (vs ValueSet) Min() sim.Value {
	if len(vs) == 0 {
		panic("converge: Min of empty ValueSet")
	}
	return vs[0]
}

// proposal is a round-2 entry: the proposer's round-1 value set and whether
// it proposes to commit.
type proposal struct {
	set    ValueSet
	commit bool
}

// StateFP implements sim.Fingerprinter for the explorer's state digests:
// proposals live in shared snapshot cells, so their fingerprint must be a
// function of their content alone.
func (p proposal) StateFP() uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, v := range p.set {
		h = (h ^ uint64(v)) * 0x100000001b3
	}
	if p.commit {
		h ^= 0x8000000000000001
	}
	return h
}

// Impl selects the snapshot implementation backing converge instances.
type Impl int

const (
	// UseAtomic backs instances with one-step atomic snapshot objects.
	UseAtomic Impl = iota
	// UseAfek backs instances with the registers-only Afek et al. snapshot,
	// exercising the paper's "registers suffice" claim at O(n²) step cost.
	UseAfek
)

// String implements fmt.Stringer.
func (i Impl) String() string {
	switch i {
	case UseAtomic:
		return "atomic-snapshot"
	case UseAfek:
		return "afek-snapshot"
	default:
		return fmt.Sprintf("Impl(%d)", int(i))
	}
}

// Instance is one k-converge object shared by the n processes.
type Instance struct {
	k int
	a memory.Snapshot[sim.Value]
	b memory.Snapshot[proposal]
}

// NewInstance creates a k-converge object for n processes, identified by
// key: its two snapshot objects are parts A and B of key, so their cells
// render as key.A[i] and key.B[i].
func NewInstance(key sim.ObjKey, n, k int, impl Impl) *Instance {
	if k < 0 {
		panic(fmt.Sprintf("converge: negative k=%d", k))
	}
	inst := &Instance{k: k}
	switch impl {
	case UseAtomic:
		inst.a = memory.NewAtomicSnapshot[sim.Value](key.WithPart(0), n)
		inst.b = memory.NewAtomicSnapshot[proposal](key.WithPart(1), n)
	case UseAfek:
		inst.a = memory.NewAfekSnapshot[sim.Value](key.WithPart(0), n)
		inst.b = memory.NewAfekSnapshot[proposal](key.WithPart(1), n)
	default:
		panic(fmt.Sprintf("converge: unknown Impl %d", int(impl)))
	}
	return inst
}

// K returns the instance's convergence parameter.
func (c *Instance) K() int { return c.k }

// Series is a lazily-allocated family of converge instances, indexed the way
// the paper indexes them: converge[r] and converge[r][k], with the instance's
// convergence parameter part of the identity (so that processes with
// divergent failure detector views, and hence divergent parameters, use
// distinct objects). Instance [r][k] with parameter param is At(r, k,
// param), identified by the key name[r][k]/param; Reset keeps the instances
// as spares for the next run.
type Series = memory.Family[*Instance, seriesMaker]

// NewSeries creates a converge-instance family for n processes whose
// instances are named after name.
func NewSeries(name sim.Name, n int, impl Impl) *Series {
	return memory.NewFamily[*Instance](name.Key(sim.ObjConverge), seriesMaker{n: n, impl: impl})
}

// seriesMaker makes a series' instances for n processes on impl.
type seriesMaker struct {
	n    int
	impl Impl
}

func (b seriesMaker) Make(key sim.ObjKey, param int) *Instance {
	return NewInstance(key, b.n, param, b.impl)
}

// Rearm empties c's snapshots for a new run and gives it key and parameter
// k; see memory.Snapshot.Reset for the cached IDs.
func (seriesMaker) Rearm(c *Instance, key sim.ObjKey, k int) {
	if k < 0 {
		panic(fmt.Sprintf("converge: negative k=%d", k))
	}
	c.k = k
	c.a.Reset(key.WithPart(0))
	c.b.Reset(key.WithPart(1))
}
