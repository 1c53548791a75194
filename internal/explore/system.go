package explore

import (
	"fmt"
	"strings"

	"weakestfd/internal/converge"
	"weakestfd/internal/core"
	"weakestfd/internal/fd"
	"weakestfd/internal/sim"
)

// OracleChoice identifies one failure detector history of a system's
// enumerated family: an optional bounded unstable prefix (Flips), then a
// stable value (a Υ/Υ^f set, or a singleton {leader} for Ω sources) output
// permanently. Without flips the history is stable from time 0 — the PR-4
// space.
type OracleChoice struct {
	// Name is the display form, e.g. "U={p1,p3}" or
	// "U={p1} pre[{p1,p2}<8]".
	Name string
	// Stable is the history's stable output as a process set.
	Stable sim.Set
	// Flips is the unstable prefix: the pre-stabilization phases, ordered by
	// strictly increasing Until (empty = stable from time 0). Each flip is
	// recorded by the query seam as a write of the history's virtual object.
	Flips []FlipPhase
	// base is the stable-from-0 display name the flip variant was built
	// from (set by withFlips), so the shrinker can recover the base choice
	// without parsing Name.
	base string
}

// NamedHistory is one detector history an instance's machines query,
// paired with the virtual-object name it is registered under in the run's
// query seam (and hence how its accesses render in traces).
type NamedHistory struct {
	Name string
	H    sim.Oracle
}

// Instance is one run's freshly built shared state: the per-process
// machines, the detector histories the explorer registers with the query
// seam, and a Finish hook run once the simulation is over. No hook runs
// between steps: the only per-step callback of an explored run is the
// explorer's own join probe.
type Instance struct {
	// Machines are the per-process automata (one per PID). Single-task
	// systems set Machines; multi-task systems set Tasks instead.
	Machines []sim.StepMachine
	// Tasks are the per-process task sets of multi-task systems
	// (Composed/TimedComposed): the explorer runs them as sim.TaskMachines,
	// putting the extraction∘protocol pipeline of Corollary 11 under the
	// same exhaustive lens as the single-task protocols. Exactly one of
	// Machines and Tasks is non-nil.
	Tasks []sim.MachineTaskSet
	// Proposals are the input values (nil for extraction systems).
	Proposals []sim.Value
	// K is the agreement bound (0 when not applicable).
	K int
	// Finish, when non-nil, runs after the simulation and may fill
	// system-specific Run fields (e.g. Outputs/OutputsSettled): an
	// extraction reads the output changes its machines recorded as they
	// wrote them (core.Extraction.StableFrom).
	Finish func(r *Run)
	// Histories are the detector histories the machines query, registered
	// with the run's query seam so every query is recorded as a read of the
	// history's virtual object and every flip as a write. Empty for systems
	// that consume no oracle (timed-composed) or whose detector is emulated
	// from shared state already under access tracking.
	Histories []NamedHistory
}

// System is one protocol (or reduction) under exploration. Instantiate must
// build completely fresh shared state on every call: the explorer replays
// thousands of runs and two runs may never share memory.
type System interface {
	// Name is the registry name ("fig1", "fig2", …).
	Name() string
	// N is the number of processes.
	N() int
	// MaxFaults is the resilience f of the system's environment E_f.
	MaxFaults() int
	// Oracles enumerates the detector histories to explore for one pattern:
	// every legal stable value, expanded by every flip schedule the switch
	// plan allows (a zero plan keeps the histories stable from time 0).
	Oracles(pattern sim.Pattern, plan SwitchPlan) []OracleChoice
	// LegalFlipOut validates one pre-stabilization phase output against the
	// system's detector *range* (which constrains every output, not just the
	// eventual one): Υ^f phases must be sets of size ≥ n+1−f, Ω phases
	// singletons. Artifact.Replay applies it to hand-edited flip schedules;
	// the enumeration (flipVariants over upsilonRange/omegaRange) only
	// produces outputs that pass. Systems without an oracle reject every
	// flip.
	LegalFlipOut(out sim.Set) error
	// Instantiate builds one run's machines and hooks.
	Instantiate(pattern sim.Pattern, o OracleChoice) Instance
	// Properties are the claims checked on every completed run.
	Properties() []Property
}

// registry lists every system NewSystem resolves, in -system help order:
// the real systems first, then each protocol family's mutants (the core.Mut*
// constants document each mutation, and the zoo in mutants.go pairs every
// mutant with its expected killing configuration and failure pattern). Each
// entry holds its system with n and f left zero: NewSystem sizes a copy, and
// every Name() looks its system up by that unsized form, so each registry
// name is spelled here and nowhere else.
var registry = []struct {
	name  string
	proto sizable
}{
	{"fig1", fig1System{}},
	{"fig2", fig2System{}},
	{"extract-omega", extractSystem{}},
	{"composed", composedSystem{}},
	{"timed-composed", timedComposedSystem{}},
	{"fig1-broken-adopt", fig1System{mut: core.MutWrongAdopt}},
	{"fig1-skip-on-change", fig1System{mut: core.MutSkipOnChange}},
	{"fig1-garbled-decide", fig1System{mut: core.MutGarbledDecide}},
	{"fig1-garbled-echo", fig1System{mut: core.MutGarbledEcho}},
	{"fig2-broken-adopt", fig2System{mut: core.MutF2WrongAdopt}},
	{"fig2-skip-on-change", fig2System{mut: core.MutF2SkipOnChange}},
	{"fig2-starved-wait", fig2System{mut: core.MutF2StarvedWait}},
	{"extract-full-output", extractSystem{mut: core.MutExFullOutput}},
	{"extract-empty-output", extractSystem{mut: core.MutExEmptyOutput}},
	{"extract-stale-leader", extractSystem{mut: core.MutExStaleLeader}},
	{"composed-broken-adopt", composedSystem{mut: core.MutWrongAdopt}},
	{"composed-garbled-echo", composedSystem{mut: core.MutGarbledEcho}},
	{"composed-garbled-decide", composedSystem{mut: core.MutGarbledDecide}},
}

// sizable is a registered system type: sized returns a copy with n
// processes explored in E_f.
type sizable interface {
	System
	sized(n, f int) System
}

// sizing is a system's process count n and the resilience f of the
// environment E_f it is explored in: a sweep enumerates the failure
// patterns with at most f crashes.
type sizing struct{ n, f int }

func (z sizing) N() int         { return z.n }
func (z sizing) MaxFaults() int { return z.f }

// NewSystem builds a registered system by name — the registry `fdlab
// explore -system` and artifact replay resolve against — with n processes
// in E_f. Figure 2 also takes f as its agreement parameter.
func NewSystem(name string, n, f int) (System, error) {
	for _, e := range registry {
		if e.name != name {
			continue
		}
		if f < 1 || f > n-1 {
			return nil, fmt.Errorf("explore: %s f=%d out of range [1,%d] for n=%d", name, f, n-1, n)
		}
		return e.proto.sized(n, f), nil
	}
	return nil, fmt.Errorf("explore: unknown system %q (want %s)", name, strings.Join(SystemNames(), "|"))
}

// SystemNames lists the registry names in -system help order.
func SystemNames() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

// registryName returns the registry name of an unsized system.
func registryName(unsized System) string {
	for _, e := range registry {
		if e.proto == unsized {
			return e.name
		}
	}
	panic(fmt.Sprintf("explore: unregistered system %#v", unsized))
}

// canonicalProposals returns the explorer's fixed inputs 100..100+n−1:
// distinct values, so agreement violations cannot hide behind colliding
// proposals.
func canonicalProposals(n int) []sim.Value {
	out := make([]sim.Value, n)
	for i := range out {
		out[i] = sim.Value(100 + i)
	}
	return out
}

// upsilonHistory builds the Υ^f history for one choice: the choice's flip
// phases (none when it is stable from time 0), then its stable set.
func upsilonHistory(spec core.UpsilonSpec, pattern sim.Pattern, o OracleChoice) sim.Oracle {
	if err := spec.LegalStable(pattern, o.Stable); err != nil {
		panic(fmt.Sprintf("explore: illegal Υ^f stable set: %v", err))
	}
	phases := make([]fd.Phase[sim.Set], len(o.Flips))
	for i, f := range o.Flips {
		phases[i] = fd.Phase[sim.Set]{Until: f.Until, Out: f.Out}
	}
	return fd.NewUnstable(o.Stable, phases...)
}

// omegaHistory builds the Ω source history for one choice: the choice's
// pre-stabilization leaders (none when it is stable from time 0), then its
// correct stable leader.
func omegaHistory(o OracleChoice) sim.Oracle {
	phases := make([]fd.Phase[sim.PID], len(o.Flips))
	for i, f := range o.Flips {
		phases[i] = fd.Phase[sim.PID]{Until: f.Until, Out: f.Out.Min()}
	}
	return fd.NewUnstable(o.Stable.Min(), phases...)
}

// omegaLeaderChoices enumerates every correct leader as an Ω source's stable
// output, in PID order (Members iterates ascending).
func omegaLeaderChoices(pattern sim.Pattern) []OracleChoice {
	var out []OracleChoice
	for _, leader := range pattern.Correct().Members() {
		out = append(out, OracleChoice{
			Name:   fmt.Sprintf("leader=%v", leader),
			Stable: sim.SetOf(leader),
		})
	}
	return out
}

// legalStableSets enumerates every legal Υ^f stable set for the pattern, in
// deterministic order: all subsets of Π of size ≥ n+1−f except correct(F).
func legalStableSets(spec core.UpsilonSpec, pattern sim.Pattern) []OracleChoice {
	var out []OracleChoice
	full := sim.FullSet(spec.N)
	for bits := sim.Set(1); bits <= full; bits++ {
		if spec.LegalStable(pattern, bits) != nil {
			continue
		}
		out = append(out, OracleChoice{Name: "U=" + bits.String(), Stable: bits})
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 1 (and its mutation-testing variant)

type fig1System struct {
	sizing
	mut core.Fig1Mutation
}

// Fig1System explores the paper's Figure 1: Υ-based n−1-set agreement among
// n processes, wait-free.
func Fig1System(n int) System { return fig1System{sizing: sizing{n, n - 1}} }

func (s fig1System) Name() string          { return registryName(s.sized(0, 0)) }
func (s fig1System) sized(n, f int) System { s.sizing = sizing{n, f}; return s }

func (s fig1System) Oracles(pattern sim.Pattern, plan SwitchPlan) []OracleChoice {
	spec := core.Upsilon(s.n)
	return flipVariants(legalStableSets(spec, pattern), upsilonRange(s.n, spec.MinSize()), plan)
}

func (s fig1System) LegalFlipOut(out sim.Set) error {
	return upsilonFlipOut(core.Upsilon(s.n), out)
}

func (s fig1System) Instantiate(pattern sim.Pattern, o OracleChoice) Instance {
	h := upsilonHistory(core.Upsilon(s.n), pattern, o)
	g := core.NewFig1(s.n, h, converge.UseAtomic)
	proposals := canonicalProposals(s.n)
	machines := make([]sim.StepMachine, s.n)
	for i := range machines {
		machines[i] = g.MutantMachine(proposals[i], s.mut)
	}
	return Instance{
		Machines:  machines,
		Proposals: proposals,
		K:         g.K(),
		Histories: []NamedHistory{{Name: "H(U)", H: h}},
	}
}

func (s fig1System) Properties() []Property {
	return []Property{AtMostK{}, Validity{}, TerminationOfCorrect{}}
}

// ---------------------------------------------------------------------------
// Figure 2

type fig2System struct {
	sizing
	mut core.Fig2Mutation
}

// Fig2System explores the paper's Figure 2: Υ^f-based f-set agreement among
// n processes in E_f.
func Fig2System(n, f int) System { return fig2System{sizing: sizing{n, f}} }

func (s fig2System) Name() string          { return registryName(s.sized(0, 0)) }
func (s fig2System) sized(n, f int) System { s.sizing = sizing{n, f}; return s }

func (s fig2System) Oracles(pattern sim.Pattern, plan SwitchPlan) []OracleChoice {
	spec := core.UpsilonF(s.n, s.f)
	return flipVariants(legalStableSets(spec, pattern), upsilonRange(s.n, spec.MinSize()), plan)
}

func (s fig2System) LegalFlipOut(out sim.Set) error {
	return upsilonFlipOut(core.UpsilonF(s.n, s.f), out)
}

func (s fig2System) Instantiate(pattern sim.Pattern, o OracleChoice) Instance {
	h := upsilonHistory(core.UpsilonF(s.n, s.f), pattern, o)
	g := core.NewFig2(s.n, s.f, h, converge.UseAtomic)
	proposals := canonicalProposals(s.n)
	machines := make([]sim.StepMachine, s.n)
	for i := range machines {
		machines[i] = g.MutantMachine(proposals[i], s.mut)
	}
	return Instance{
		Machines:  machines,
		Proposals: proposals,
		K:         g.K(),
		Histories: []NamedHistory{{Name: "H(U)", H: h}},
	}
}

func (s fig2System) Properties() []Property {
	return []Property{AtMostK{}, Validity{}, TerminationOfCorrect{}}
}

// ---------------------------------------------------------------------------
// Figure 3 extraction from Ω

type extractSystem struct {
	sizing
	mut core.ExtractMutation
}

// ExtractOmegaSystem explores the Figure 3 reduction extracting Υ from a
// stable Ω source: the checked property is Υ-output sanity — whenever the
// emulated outputs settle within the run, the settled set must be a legal Υ
// value for the pattern (in particular, not the correct set).
func ExtractOmegaSystem(n int) System { return extractSystem{sizing: sizing{n, n - 1}} }

func (s extractSystem) Name() string          { return registryName(s.sized(0, 0)) }
func (s extractSystem) sized(n, f int) System { s.sizing = sizing{n, f}; return s }

func (s extractSystem) LegalFlipOut(out sim.Set) error { return omegaFlipOut(s.n, out) }

// Oracles enumerates every correct leader as the Ω source's stable output,
// in PID order (Members iterates ascending), expanded by the plan's flip
// schedules over arbitrary (possibly faulty) pre-stabilization leaders.
func (s extractSystem) Oracles(pattern sim.Pattern, plan SwitchPlan) []OracleChoice {
	return flipVariants(omegaLeaderChoices(pattern), omegaRange(s.n), plan)
}

func (s extractSystem) Instantiate(pattern sim.Pattern, o OracleChoice) Instance {
	oracle := omegaHistory(o)
	ex := core.NewExtraction(s.n, oracle, core.PhiOmega(s.n))
	machines := make([]sim.StepMachine, s.n)
	for i := range machines {
		machines[i] = ex.MutantMachine(s.mut)
	}
	correct := pattern.Correct()
	return Instance{
		Machines:  machines,
		Histories: []NamedHistory{{Name: "H(Ω)", H: oracle}},
		Finish: func(r *Run) {
			r.Outputs = ex.Outputs()
			stable, from, err := ex.StableFrom(correct, r.Report.Steps)
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
		},
	}
}

func (s extractSystem) Properties() []Property {
	return []Property{UpsilonSanity{Spec: core.Upsilon(s.n)}}
}

// ---------------------------------------------------------------------------
// Composed: Figure 3 extraction ∘ Figure 1 protocol (Corollary 11 pipeline)

type composedSystem struct {
	sizing
	mut core.Fig1Mutation
}

// ComposedSystem explores the Theorem 10 composition: each process runs the
// Figure 3 reduction against a stable Ω source as one task and the Figure 1
// protocol consuming the emulated Υ as a second, run as sim.TaskMachines.
// Checked properties are the safety half — Agreement
// and Validity must hold under *every* schedule, even ones on which the
// emulated detector has not yet converged; termination is an eventual
// property of fair runs and is exercised by the lab experiments instead
// (a bounded adversarial run cannot refute it).
func ComposedSystem(n int) System { return composedSystem{sizing: sizing{n, n - 1}} }

func (s composedSystem) Name() string          { return registryName(s.sized(0, 0)) }
func (s composedSystem) sized(n, f int) System { s.sizing = sizing{n, f}; return s }

func (s composedSystem) LegalFlipOut(out sim.Set) error { return omegaFlipOut(s.n, out) }

// Oracles enumerates every correct leader as the underlying Ω source's
// stable output, as in ExtractOmegaSystem, with the plan's flip schedules.
func (s composedSystem) Oracles(pattern sim.Pattern, plan SwitchPlan) []OracleChoice {
	return flipVariants(omegaLeaderChoices(pattern), omegaRange(s.n), plan)
}

func (s composedSystem) Instantiate(pattern sim.Pattern, o OracleChoice) Instance {
	oracle := omegaHistory(o)
	c := core.NewComposed(s.n, oracle, core.PhiOmega(s.n), converge.UseAtomic)
	proposals := canonicalProposals(s.n)
	return Instance{
		Tasks:     c.MutantMachineTaskSets(proposals, s.mut),
		Proposals: proposals,
		K:         c.K(),
		// Only the underlying Ω source is a seam history; the emulated Υ the
		// protocol task queries reads the process's own output variable —
		// process-local state, not an environment object.
		Histories: []NamedHistory{{Name: "H(Ω)", H: oracle}},
	}
}

func (s composedSystem) Properties() []Property {
	return []Property{AtMostK{}, Validity{}}
}

// ---------------------------------------------------------------------------
// TimedComposed: heartbeat-implemented Υ ∘ Figure 1 protocol

type timedComposedSystem struct {
	sizing
}

// timedComposedThreshold is the heartbeat implementation's initial
// per-target patience: small, so suspicion dynamics are reachable within
// explorer-sized runs.
const timedComposedThreshold = 2

// TimedComposedSystem explores the oracle-free composition: Υ implemented
// from heartbeats and adaptive timeouts, consumed by Figure 1, both as
// parallel tasks. Adversarial schedules legally make the emulated Υ output
// arbitrary garbage (that is the impossibility of implementing a
// non-trivial detector in pure asynchrony), so only the safety properties
// are checked: no schedule — however the emulated detector misbehaves —
// may produce more than n−1 decisions or an unproposed decision.
func TimedComposedSystem(n int) System { return timedComposedSystem{sizing{n, n - 1}} }

func (s timedComposedSystem) Name() string          { return registryName(s.sized(0, 0)) }
func (s timedComposedSystem) sized(n, f int) System { s.sizing = sizing{n, f}; return s }

// Oracles returns the single trivial choice: the system consumes no oracle
// (its detector is implemented, not assumed), so there is no history to
// flip and the switch plan is ignored.
func (s timedComposedSystem) Oracles(sim.Pattern, SwitchPlan) []OracleChoice {
	return []OracleChoice{{Name: "heartbeat-emulated"}}
}

func (s timedComposedSystem) LegalFlipOut(sim.Set) error {
	return fmt.Errorf("system %s consumes no detector history: no flip schedule is legal", s.Name())
}

func (s timedComposedSystem) Instantiate(pattern sim.Pattern, _ OracleChoice) Instance {
	c := core.NewTimedComposed(s.n, timedComposedThreshold, converge.UseAtomic)
	proposals := canonicalProposals(s.n)
	return Instance{
		Tasks:     c.MachineTaskSets(proposals),
		Proposals: proposals,
		K:         c.K(),
	}
}

func (s timedComposedSystem) Properties() []Property {
	return []Property{AtMostK{}, Validity{}}
}

// upsilonFlipOut checks one pre-stabilization phase output against the Υ^f
// range: every phase output — not just the eventual stable value — must be a
// non-empty subset of Π of size at least n+1−f... in the paper's 1-indexed
// counting; with this codebase's 0-indexed |Π| = n that floor is
// spec.MinSize() = n−f. Unlike LegalStable it does not exclude the correct
// set: pre-stabilization outputs may equal correct(F), only the settled
// value may not.
func upsilonFlipOut(spec core.UpsilonSpec, out sim.Set) error {
	if out == sim.EmptySet {
		return fmt.Errorf("flip output is empty: Υ range values are non-empty")
	}
	all := sim.FullSet(spec.N)
	if out&^all != 0 {
		return fmt.Errorf("flip output %s is not a subset of Π (n=%d)", out.String(), spec.N)
	}
	if out.Len() < spec.MinSize() {
		return fmt.Errorf("flip output %s has %d processes, below the Υ range floor %d",
			out.String(), out.Len(), spec.MinSize())
	}
	return nil
}

// omegaFlipOut checks one pre-stabilization phase output against the Ω
// range: every output is a singleton {leader} ⊆ Π.
func omegaFlipOut(n int, out sim.Set) error {
	if out.Len() != 1 {
		return fmt.Errorf("flip output %s is not a singleton: Ω outputs exactly one leader", out.String())
	}
	if out&^sim.FullSet(n) != 0 {
		return fmt.Errorf("flip output %s names a process outside Π (n=%d)", out.String(), n)
	}
	return nil
}
