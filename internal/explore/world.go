package explore

import (
	"fmt"
	"sync"

	"weakestfd/internal/converge"
	"weakestfd/internal/core"
	"weakestfd/internal/fd"
	"weakestfd/internal/sim"
)

// Recycled worlds. Every run of an explored configuration starts from the
// same initial configuration: a few registers, snapshots and converge
// instances, n automata in their start states, and one detector history.
// Aspnes's model of a run as atomic steps of automata on shared objects
// makes that configuration a value to restore, not a heap to rebuild: a
// world is the storage of one system's runs — the protocol's shared state,
// its machines, the proposals and the history — and Instantiate re-arms a
// world an earlier run released instead of building a new one. Releasing
// resets every object in place (core.Fig1.Reset and its kin) and
// Instantiate arms the new run's history, so the world it hands out is
// indistinguishable from a fresh one; the objects keep the access-log IDs
// they cached, and a converge instance or snapshot that takes a different
// key in the new run drops them.
//
// The source search releases a world once it is done with the run: after
// the property check, the shrink of a violation and the race analysis.
// Every other caller of Instantiate (the shrinker, artifact replay, the
// classifier) keeps its instance, and the garbage collector takes the world
// with it. A released world is reset as it is released, so a world waiting
// for its next run holds no pointer into the search that used it (its
// machines held that run's log and query seam). Released worlds wait in a
// free list keyed by the system value (n, f and mutation), so systems
// explored alternately — the mutant zoo — keep each other's worlds; the
// lists hold at most as many worlds as runs were in flight at once.

// worldPool holds the released worlds of one system type, by system value.
type worldPool[S comparable, W any] struct {
	mu   sync.Mutex
	free map[S][]*W
}

// get returns a released world of sys, or nil when there is none.
func (p *worldPool[S, W]) get(sys S) *W {
	p.mu.Lock()
	defer p.mu.Unlock()
	ws := p.free[sys]
	if len(ws) == 0 {
		return nil
	}
	w := ws[len(ws)-1]
	ws[len(ws)-1] = nil
	p.free[sys] = ws[:len(ws)-1]
	return w
}

// put releases w, a world of sys, for a later get.
func (p *worldPool[S, W]) put(sys S, w *W) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.free == nil {
		p.free = make(map[S][]*W)
	}
	p.free[sys] = append(p.free[sys], w)
}

var (
	fig1Worlds    worldPool[fig1System, agreementWorld]
	fig2Worlds    worldPool[fig2System, agreementWorld]
	extractWorlds worldPool[extractSystem, extractWorld]
)

// agreementWorld is the storage of a Figure 1 or Figure 2 system's runs.
type agreementWorld struct {
	hist      *fd.Unstable[sim.Set]
	phases    []fd.Phase[sim.Set]
	k         int
	own       []sim.StepMachine // the machines the protocol built
	machines  []sim.StepMachine // Instance.Machines, refilled from own
	proposals []sim.Value
	histories []NamedHistory
	release   func()
}

// newAgreementWorld returns a world of n processes with its history and
// proposals; the system builds the protocol on them.
func newAgreementWorld(n int) *agreementWorld {
	w := &agreementWorld{hist: fd.NewUnstable(sim.EmptySet), proposals: canonicalProposals(n)}
	w.machines = make([]sim.StepMachine, n)
	w.histories = []NamedHistory{{Name: "H(U)", H: w.hist}}
	return w
}

// instance re-arms w for a run of o under pattern. The Υ^f history of spec
// gets the choice's flip phases (none when it is stable from time 0), then
// its stable set.
func (w *agreementWorld) instance(spec core.UpsilonSpec, pattern sim.Pattern, o OracleChoice) Instance {
	if err := spec.LegalStable(pattern, o.Stable); err != nil {
		panic(fmt.Sprintf("explore: illegal Υ^f stable set: %v", err))
	}
	w.phases = w.phases[:0]
	for _, f := range o.Flips {
		w.phases = append(w.phases, fd.Phase[sim.Set]{Until: f.Until, Out: f.Out})
	}
	w.hist.Reset(o.Stable, w.phases...)
	copy(w.machines, w.own)
	return Instance{
		Machines:  w.machines,
		Proposals: w.proposals,
		K:         w.k,
		Histories: w.histories,
		release:   w.release,
	}
}

// agreementInstance re-arms a released world of sys from pool for a run of
// o under pattern, or builds one when none is free: build makes the
// protocol on the world's history and proposals and returns its agreement
// parameter, one machine per proposal and its Reset.
func agreementInstance[S comparable](pool *worldPool[S, agreementWorld], sys S, n int, spec core.UpsilonSpec, pattern sim.Pattern, o OracleChoice,
	build func(h sim.Oracle, proposals []sim.Value) (k int, machines []sim.StepMachine, reset func())) Instance {
	w := pool.get(sys)
	if w == nil {
		w = newAgreementWorld(n)
		var reset func()
		w.k, w.own, reset = build(w.hist, w.proposals)
		w.release = func() {
			reset()
			pool.put(sys, w)
		}
	}
	return w.instance(spec, pattern, o)
}

func (s fig1System) Instantiate(pattern sim.Pattern, o OracleChoice) Instance {
	return agreementInstance(&fig1Worlds, s, s.n, core.Upsilon(s.n), pattern, o, func(h sim.Oracle, proposals []sim.Value) (int, []sim.StepMachine, func()) {
		g := core.NewFig1(s.n, h, converge.UseAtomic)
		machines := make([]sim.StepMachine, len(proposals))
		for i, v := range proposals {
			machines[i] = g.MutantMachine(v, s.mut)
		}
		return g.K(), machines, g.Reset
	})
}

func (s fig2System) Instantiate(pattern sim.Pattern, o OracleChoice) Instance {
	return agreementInstance(&fig2Worlds, s, s.n, core.UpsilonF(s.n, s.f), pattern, o, func(h sim.Oracle, proposals []sim.Value) (int, []sim.StepMachine, func()) {
		g := core.NewFig2(s.n, s.f, h, converge.UseAtomic)
		machines := make([]sim.StepMachine, len(proposals))
		for i, v := range proposals {
			machines[i] = g.MutantMachine(v, s.mut)
		}
		return g.K(), machines, g.Reset
	})
}

// extractWorld is the storage of a Figure 3 extraction system's runs.
type extractWorld struct {
	hist      *fd.Unstable[sim.PID]
	phases    []fd.Phase[sim.PID]
	ex        *core.Extraction
	own       []sim.StepMachine
	machines  []sim.StepMachine
	histories []NamedHistory
	// correct is the armed pattern's correct set, which finish reads.
	correct sim.Set
	// outs backs Run.Outputs.
	outs    []sim.Set
	finish  func(*Run)
	release func()
}

func (s extractSystem) Instantiate(pattern sim.Pattern, o OracleChoice) Instance {
	w := extractWorlds.get(s)
	if w == nil {
		w = newExtractWorld(s)
	}
	// The Ω source, as omegaHistory builds it.
	w.phases = omegaPhases(w.phases[:0], o)
	w.hist.Reset(o.Stable.Min(), w.phases...)
	w.correct = pattern.Correct()
	copy(w.machines, w.own)
	return Instance{
		Machines:  w.machines,
		Histories: w.histories,
		Finish:    w.finish,
		release:   w.release,
	}
}

func newExtractWorld(s extractSystem) *extractWorld {
	w := &extractWorld{hist: fd.NewUnstable(sim.PID(0))}
	w.ex = core.NewExtraction(s.n, w.hist, core.PhiOmega(s.n))
	w.own = make([]sim.StepMachine, s.n)
	for i := range w.own {
		w.own[i] = w.ex.MutantMachine(s.mut)
	}
	w.machines = make([]sim.StepMachine, s.n)
	w.histories = []NamedHistory{{Name: "H(Ω)", H: w.hist}}
	w.finish = func(r *Run) {
		w.outs = w.ex.Outputs(w.outs[:0])
		r.Outputs = w.outs
		stable, from, err := w.ex.StableFrom(w.correct, r.Report.Steps)
		if err != nil {
			return // outputs still disagree at the horizon: inconclusive
		}
		// Settled means the common output survived unchanged for a
		// meaningful fraction of the run — the bounded-run reading of
		// "eventually permanently output".
		window := r.Report.Steps / 4
		if window < 64 {
			window = 64
		}
		if r.Report.Steps-int64(from) >= window {
			r.OutputsSettled = true
			r.StableOutput = stable
		}
	}
	w.release = func() {
		w.ex.Reset()
		extractWorlds.put(s, w)
	}
	return w
}
