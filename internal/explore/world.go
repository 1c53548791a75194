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
// the property check, the shrink of a violation and the race analysis. The
// shrinker releases each replay's world as soon as it has read the
// property's verdict and message, and the explorer releases the
// classifier's replay of a witness once Classify has read it, so the
// replays of a violation re-arm one world in turn. Artifact replay and other
// callers of Instantiate keep their instance, and the garbage collector
// takes the world with it. A released world is reset as it is released, so
// a world waiting for its next run holds no pointer into the search that
// used it (its machines held that run's log and query seam). Released
// worlds wait in a free list keyed by the system value (n, f and mutation),
// so systems explored alternately — the mutant zoo — keep each other's
// worlds; the lists hold at most as many worlds as runs were in flight at
// once.

// worldPool holds the released worlds of one system type, by system value.
type worldPool[S comparable] struct {
	mu   sync.Mutex
	free map[S][]*world
}

// get returns a released world of sys, or nil when there is none.
func (p *worldPool[S]) get(sys S) *world {
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
func (p *worldPool[S]) put(sys S, w *world) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.free == nil {
		p.free = make(map[S][]*world)
	}
	p.free[sys] = append(p.free[sys], w)
}

var (
	fig1Worlds          worldPool[fig1System]
	fig2Worlds          worldPool[fig2System]
	extractWorlds       worldPool[extractSystem]
	composedWorlds      worldPool[composedSystem]
	timedComposedWorlds worldPool[timedComposedSystem]
)

// world is the storage of one system's runs: the machines its protocol
// built on the protocol's shared state, the proposals, the detector
// history, and the hooks of an Instance.
type world struct {
	k         int
	own       []sim.StepMachine // the machines the protocol built
	machines  []sim.StepMachine // Instance.Machines, refilled from own
	proposals []sim.Value
	histories []NamedHistory
	// arm re-arms the detector history for a run of o (nil for a system
	// that consumes none).
	arm     func(o OracleChoice)
	finish  func(*Run)
	release func()
}

// instantiate re-arms a released world of sys from pool for a run of o, or
// builds one of n processes when none is free: build makes the protocol,
// fills in the world's machines, and its proposals, agreement parameter,
// history and Finish hook where the system has them, and returns the
// protocol's Reset. Every Instance gets the world's machines afresh from
// own, so a caller that wraps Instance.Machines in place wraps them once.
func instantiate[S comparable](pool *worldPool[S], sys S, n int, o OracleChoice, build func(w *world) (reset func())) Instance {
	w := pool.get(sys)
	if w == nil {
		w = &world{machines: make([]sim.StepMachine, n)}
		reset := build(w)
		w.release = func() {
			reset()
			pool.put(sys, w)
		}
	}
	if w.arm != nil {
		w.arm(o)
	}
	copy(w.machines, w.own)
	return Instance{
		Machines:  w.machines,
		Proposals: w.proposals,
		K:         w.k,
		Histories: w.histories,
		Finish:    w.finish,
		release:   w.release,
	}
}

// watch gives w a detector history, registered with the query seam under
// name, and returns it for the protocol to query. Each run re-arms it with
// the choice's flip phases (none when it is stable from time 0), then its
// stable output; out reads an output off a choice's process set: the set
// itself for Υ, its leader for an Ω source.
func watch[T any](w *world, name string, out func(sim.Set) T) *fd.Unstable[T] {
	var zero T
	h := fd.NewUnstable(zero)
	var phases []fd.Phase[T]
	w.histories = []NamedHistory{{Name: name, H: h}}
	w.arm = func(o OracleChoice) {
		phases = phases[:0]
		for _, f := range o.Flips {
			phases = append(phases, fd.Phase[T]{Until: f.Until, Out: out(f.Out)})
		}
		h.Reset(out(o.Stable), phases...)
	}
	return h
}

// upsilonOut is a Υ history's output for a choice's set: the set.
func upsilonOut(s sim.Set) sim.Set { return s }

// mustLegal panics unless o's stable set is legal for spec under pattern:
// the enumeration produces legal sets only, and artifact replay checks its
// own before it instantiates.
func mustLegal(spec core.UpsilonSpec, pattern sim.Pattern, o OracleChoice) {
	if err := spec.LegalStable(pattern, o.Stable); err != nil {
		panic(fmt.Sprintf("explore: illegal Υ^f stable set: %v", err))
	}
}

// agreementMachines fills in w's proposals, one machine per proposal from
// machine, and the agreement parameter k.
func agreementMachines(w *world, n, k int, machine func(sim.Value) sim.StepMachine) {
	w.proposals, w.k = canonicalProposals(n), k
	w.own = make([]sim.StepMachine, n)
	for i, v := range w.proposals {
		w.own[i] = machine(v)
	}
}

func (s fig1System) Instantiate(pattern sim.Pattern, o OracleChoice) Instance {
	mustLegal(core.Upsilon(s.n), pattern, o)
	return instantiate(&fig1Worlds, s, s.n, o, func(w *world) func() {
		g := core.NewFig1(s.n, watch(w, "H(U)", upsilonOut), converge.UseAtomic)
		agreementMachines(w, s.n, g.K(), func(v sim.Value) sim.StepMachine { return g.MutantMachine(v, s.mut) })
		return g.Reset
	})
}

func (s fig2System) Instantiate(pattern sim.Pattern, o OracleChoice) Instance {
	mustLegal(core.UpsilonF(s.n, s.f), pattern, o)
	return instantiate(&fig2Worlds, s, s.n, o, func(w *world) func() {
		g := core.NewFig2(s.n, s.f, watch(w, "H(U)", upsilonOut), converge.UseAtomic)
		agreementMachines(w, s.n, g.K(), func(v sim.Value) sim.StepMachine { return g.MutantMachine(v, s.mut) })
		return g.Reset
	})
}

func (s composedSystem) Instantiate(_ sim.Pattern, o OracleChoice) Instance {
	return instantiate(&composedWorlds, s, s.n, o, func(w *world) func() {
		// Only the underlying Ω source is a seam history; the emulated Υ the
		// protocol task queries reads the process's own output variable —
		// process-local state, not an environment object.
		c := core.NewComposed(s.n, watch(w, "H(Ω)", sim.Set.Min), core.PhiOmega(s.n), converge.UseAtomic)
		w.proposals, w.k = canonicalProposals(s.n), c.K()
		w.own = sim.TaskMachines(c.MutantMachineTaskSets(w.proposals, s.mut))
		return c.Reset
	})
}

func (s timedComposedSystem) Instantiate(_ sim.Pattern, o OracleChoice) Instance {
	return instantiate(&timedComposedWorlds, s, s.n, o, func(w *world) func() {
		c := core.NewTimedComposed(s.n, timedComposedThreshold, converge.UseAtomic)
		w.proposals, w.k = canonicalProposals(s.n), c.K()
		w.own = sim.TaskMachines(c.MachineTaskSets(w.proposals))
		return c.Reset
	})
}

func (s extractSystem) Instantiate(_ sim.Pattern, o OracleChoice) Instance {
	return instantiate(&extractWorlds, s, s.n, o, func(w *world) func() {
		ex := core.NewExtraction(s.n, watch(w, "H(Ω)", sim.Set.Min), core.PhiOmega(s.n))
		w.own = make([]sim.StepMachine, s.n)
		for i := range w.own {
			w.own[i] = ex.MutantMachine(s.mut)
		}
		var outs []sim.Set // backs Run.Outputs
		w.finish = func(r *Run) {
			outs = ex.Outputs(outs[:0])
			r.Outputs = outs
			stable, from, ok := ex.Settled(r.Pattern.Correct(), r.Report.Steps)
			if !ok {
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
		return ex.Reset
	})
}
