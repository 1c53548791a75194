// Package agreement implements the baseline algorithms the paper compares
// against or builds upon:
//
//   - consensus from Ω and registers (the Chandra–Hadzilacos–Toueg setting
//     in shared memory, via leader-driven 1-converge rounds),
//   - n-set agreement from Ωn and registers (Neiger, the paper's [18] — the
//     algorithm the conjecture of [19] was about),
//   - the FD-free asynchronous attempt, which cannot terminate in general
//     (FLP / set-agreement impossibility) and serves as the impossibility
//     side of the experiments.
package agreement

import (
	"fmt"

	"weakestfd/internal/converge"
	"weakestfd/internal/memory"
	"weakestfd/internal/sim"
)

// OmegaConsensus solves consensus (1-set agreement) among n processes using
// an Ω history and registers, tolerating n−1 crashes. In round r, processes
// that currently consider themselves the leader run 1-converge[r]; a commit
// is posted to the decision register. Non-leaders poll the decision register
// and the round announcements. Safety comes from 1-converge's C-Agreement
// chained through round announcements; liveness from Ω's eventual unique
// correct leader running alone.
type OmegaConsensus struct {
	n     int
	omega sim.Oracle
	conv  *converge.Series
	d     *memory.Register[memory.Opt[sim.Value]]
	last  *lazyRegs // LastVal[r]: the value picked in round r
}

// NewOmegaConsensus builds the shared state for one consensus run.
func NewOmegaConsensus(n int, omega sim.Oracle, impl converge.Impl) *OmegaConsensus {
	if n < 1 {
		panic(fmt.Sprintf("agreement: OmegaConsensus n=%d", n))
	}
	return &OmegaConsensus{
		n:     n,
		omega: omega,
		conv:  converge.NewSeries(sim.NameOf("cons"), n, impl),
		d:     memory.NewRegister[memory.Opt[sim.Value]](keyD),
		last:  newLazyRegs(),
	}
}

// OmegaNSetAgreement solves (n−1)-set agreement among n processes using an
// Ωn-style history (a set of n−1 processes eventually containing a correct
// process) and registers — the paper's [18] baseline, which Corollary 3
// shows is *not* based on the weakest detector for the task. Each round,
// processes currently inside the Ωn set announce their values; every process
// adopts the first announcement it sees for the round (at most n−1 distinct,
// since only Ωn members announce) and runs (n−1)-converge[r]; a commit is
// posted to the decision register.
type OmegaNSetAgreement struct {
	n      int
	omegaN sim.Oracle
	conv   *converge.Series
	d      *memory.Register[memory.Opt[sim.Value]]
	ann    *lazyArrays // Announce[r][i]
}

// NewOmegaNSetAgreement builds the shared state for one run.
func NewOmegaNSetAgreement(n int, omegaN sim.Oracle, impl converge.Impl) *OmegaNSetAgreement {
	if n < 2 {
		panic(fmt.Sprintf("agreement: OmegaNSetAgreement n=%d", n))
	}
	return &OmegaNSetAgreement{
		n:      n,
		omegaN: omegaN,
		conv:   converge.NewSeries(sim.NameOf("nset"), n, impl),
		d:      memory.NewRegister[memory.Opt[sim.Value]](keyD),
		ann:    newLazyArrays(n),
	}
}

// K returns the agreement parameter, n−1.
func (a *OmegaNSetAgreement) K() int { return a.n - 1 }

// AsyncAttempt is the FD-free attempt at (n−1)-set agreement: processes loop
// on (n−1)-converge instances with no failure information. Convergence only
// fires when at most n−1 distinct values remain in play, which an adversary
// (or plain bad luck with n distinct inputs and no crashes) prevents
// forever — the executable face of the set-agreement impossibility the
// paper builds on [2,14,20].
type AsyncAttempt struct {
	n    int
	conv *converge.Series
	d    *memory.Register[memory.Opt[sim.Value]]
}

// NewAsyncAttempt builds the shared state for one attempt.
func NewAsyncAttempt(n int, impl converge.Impl) *AsyncAttempt {
	return &AsyncAttempt{
		n:    n,
		conv: converge.NewSeries(sim.NameOf("async"), n, impl),
		d:    memory.NewRegister[memory.Opt[sim.Value]](keyD),
	}
}

// The shared objects' keys: the decision register D, and the per-round
// registers Last[r] and announcement arrays Ann[r][i].
var (
	keyD    = sim.KeyOf("D")
	keyLast = sim.KeyOf("Last")
	keyAnn  = sim.KeyOf("Ann")
)

// lazyRegs lazily allocates a register per round.
type lazyRegs struct {
	m map[int]*memory.Register[memory.Opt[sim.Value]]
}

func newLazyRegs() *lazyRegs {
	return &lazyRegs{m: make(map[int]*memory.Register[memory.Opt[sim.Value]])}
}

func (l *lazyRegs) at(r int) *memory.Register[memory.Opt[sim.Value]] {
	reg, ok := l.m[r]
	if !ok {
		reg = memory.NewRegister[memory.Opt[sim.Value]](keyLast.WithRound(r))
		l.m[r] = reg
	}
	return reg
}

// lazyArrays lazily allocates a register array per round.
type lazyArrays struct {
	n int
	m map[int]*memory.Array[memory.Opt[sim.Value]]
}

func newLazyArrays(n int) *lazyArrays {
	return &lazyArrays{n: n, m: make(map[int]*memory.Array[memory.Opt[sim.Value]])}
}

func (l *lazyArrays) at(r int) *memory.Array[memory.Opt[sim.Value]] {
	arr, ok := l.m[r]
	if !ok {
		arr = memory.NewArray[memory.Opt[sim.Value]](keyAnn.WithRound(r), l.n)
		l.m[r] = arr
	}
	return arr
}
