package explore

import (
	"fmt"

	"weakestfd/internal/sim"
)

// The mutant zoo: every registered broken system, paired with the cheapest
// exploration configuration known to kill it and the named failure pattern
// the classifier must assign to the kill. The zoo is the calibration data of
// the whole explorer: TestMutantZoo sweeps each entry and fails unless the
// mutant is (a) killed and (b) classified to its documented pattern, and the
// committed counterexample corpus under testdata/corpus/ is regenerated from
// these exact configurations.

// Mutant is one zoo entry: a registered mutant system plus its cheapest
// killing sweep and the expected verdict.
type Mutant struct {
	// System is the registry name (NewSystem resolves it) and N/F the size
	// and resilience to instantiate.
	System string
	N, F   int
	// Property is the property the kill must violate, and Pattern the named
	// failure pattern the classifier must assign to the shrunk witness.
	Property string
	Pattern  string
	// Config fields of the cheapest killing sweep. Zero values defer to
	// Config.withDefaults; CrashTimes/FlipTimes are trimmed to the
	// productive grid points so the gate stays CI-affordable.
	SwitchBudget int
	FlipTimes    []sim.Time
	CrashTimes   []sim.Time
	MaxDepth     int
	MaxRuns      int64
	Budget       int64
	Symmetry     bool
}

// Kill runs the mutant's sweep and returns the first violation of the
// expected property (nil if the mutant survived) plus the full result. The
// sweep explores on GOMAXPROCS lab workers and stops at its first
// violation, so with more than one worker which violation comes first, and
// with it the witness, depends on timing; the committed corpus holds the
// kills of one worker.
func (m Mutant) Kill() (*Violation, *Result, error) {
	return m.kill(0)
}

// kill is Kill on the given number of lab workers (<= 0: GOMAXPROCS).
func (m Mutant) kill(workers int) (*Violation, *Result, error) {
	sys, err := NewSystem(m.System, m.N, m.F)
	if err != nil {
		return nil, nil, err
	}
	res := Explore(Config{
		System:        sys,
		SwitchBudget:  m.SwitchBudget,
		FlipTimes:     m.FlipTimes,
		CrashTimes:    m.CrashTimes,
		MaxDepth:      m.MaxDepth,
		MaxRuns:       m.MaxRuns,
		Budget:        m.Budget,
		Symmetry:      m.Symmetry,
		Workers:       workers,
		MaxViolations: 1,
	})
	for _, v := range res.Violations {
		if v.Property == m.Property {
			return v, res, nil
		}
	}
	return nil, res, nil
}

// MutantZoo returns every mutant entry. Each of the four real protocol
// systems (fig1, fig2, extract-omega, composed) has at least three mutants;
// the comments give the kill's mechanism and why the configuration is the
// cheapest known one.
func MutantZoo() []Mutant {
	return []Mutant{
		// fig1-broken-adopt: the n=2 lost-update race on round 1's converge —
		// both processes read param.A/param.B before either write lands, each
		// escapes believing it ran alone and solo-commits its own value.
		// Depth 24 contains the second decision; symmetry halves the crash
		// grid.
		{
			System: "fig1-broken-adopt", N: 2, F: 1,
			Property: "agreement", Pattern: "wrong-adopt-order",
			CrashTimes: []sim.Time{0}, MaxDepth: 24, MaxRuns: 150_000,
			Budget: 2048, Symmetry: true,
		},
		// fig1-skip-on-change: dead code under every stable-from-0 history —
		// only a SwitchBudget>=1 sweep reaches it. Flip time 14 lands inside
		// the first gladiator cycle's query window; depth 36 contains the
		// skipping process's resumption after the laggard's solo decision.
		{
			System: "fig1-skip-on-change", N: 2, F: 1,
			Property: "agreement", Pattern: "adopt-skipped-after-flip",
			SwitchBudget: 1, FlipTimes: []sim.Time{14}, CrashTimes: []sim.Time{0},
			MaxDepth: 36, MaxRuns: 400_000, Budget: 2048,
		},
		// fig1-garbled-decide: every deciding run decides v+911 — the root
		// fair run kills it, no branching needed.
		{
			System: "fig1-garbled-decide", N: 2, F: 1,
			Property: "validity", Pattern: "unproposed-decision",
			CrashTimes: []sim.Time{0}, MaxDepth: 1, MaxRuns: 4, Budget: 2048,
		},
		// fig1-garbled-echo: dead code under stable output Π, so the kill
		// rides the oracle enumeration — under stable U={p1} the excluded p2
		// is a live citizen whose poisoned D[1] echo the gladiator adopts and
		// eventually decides. Root fair runs over the stable-set variants
		// suffice; no schedule branching.
		{
			System: "fig1-garbled-echo", N: 2, F: 1,
			Property: "validity", Pattern: "unproposed-decision",
			CrashTimes: []sim.Time{0}, MaxDepth: 1, MaxRuns: 8, Budget: 2048,
		},
		// fig2-broken-adopt: same adopt race as fig1, lifted to Figure 2's
		// top-level (f)-converge — needs two gladiators, so n=3 with
		// U={p0,p1} (legal failure-free: size 2 >= n-f, != correct). The
		// gladiator sub-round deepens the witness; depth 48.
		{
			System: "fig2-broken-adopt", N: 3, F: 1,
			Property: "agreement", Pattern: "wrong-adopt-order",
			CrashTimes: []sim.Time{0}, MaxDepth: 24, MaxRuns: 150_000,
			Budget: 2048, Symmetry: true,
		},
		// fig2-skip-on-change: Figure 2's detector-change escape broken the
		// same way fig1-skip-on-change breaks Figure 1's — dead code under
		// every stable-from-0 history, so only the SwitchBudget dimension
		// reaches it. The flip must land between a gladiator's round-entry
		// query and its re-query; the skipper then bypasses two rounds'
		// top-level converges and solo-commits its stale value. Flip time 24
		// lands between the fair run's round-entry query and its wait-loop
		// re-query, so the root fair run under the right flip variant already
		// violates — no schedule branching needed.
		{
			System: "fig2-skip-on-change", N: 2, F: 1,
			Property: "agreement", Pattern: "adopt-skipped-after-flip",
			SwitchBudget: 1, FlipTimes: []sim.Time{24}, CrashTimes: []sim.Time{0},
			MaxDepth: 1, MaxRuns: 64, Budget: 2048,
		},
		// fig2-starved-wait: the wait loop counts crashed processes — the
		// victim must die mid-converge (crash-at-0 lets the survivor
		// solo-commit the top-level converge and never reach the snapshot),
		// so that the survivor enters the gladiator cycle and waits forever
		// for the corpse's snapshot entry. The root fair run exhausts the
		// budget; the shrinker proves the crash load-bearing.
		{
			System: "fig2-starved-wait", N: 2, F: 1,
			Property: "termination-of-correct", Pattern: "crash-stalled-wait",
			CrashTimes: []sim.Time{5}, MaxDepth: 1, MaxRuns: 8, Budget: 512,
		},
		// extract-full-output: the output switch publishes Π instead of S —
		// under the failure-free root run the outputs settle on Π = correct.
		// The budget must clear the settle window (max(steps/4, 64)).
		{
			System: "extract-full-output", N: 2, F: 1,
			Property: "upsilon-sanity", Pattern: "correct-set-output",
			CrashTimes: []sim.Time{0}, MaxDepth: 1, MaxRuns: 4, Budget: 768,
		},
		// extract-empty-output: the settled output is ∅, outside the Υ range
		// in every pattern — root-run kill.
		{
			System: "extract-empty-output", N: 2, F: 1,
			Property: "upsilon-sanity", Pattern: "empty-detector-output",
			CrashTimes: []sim.Time{0}, MaxDepth: 1, MaxRuns: 4, Budget: 768,
		},
		// extract-stale-leader: with p1 crashed from the start and the Ω
		// source outputting the corpse until t=2, p0's first query latches
		// leader p1; the latch never updates, S settles on complement({p1}) =
		// {p0} = correct. Flip and crash are both load-bearing. The crashed
		// process never steps, so the root run is the whole schedule space.
		{
			System: "extract-stale-leader", N: 2, F: 1,
			Property: "upsilon-sanity", Pattern: "stale-leader-latch",
			SwitchBudget: 1, FlipTimes: []sim.Time{2}, CrashTimes: []sim.Time{0},
			MaxDepth: 1, MaxRuns: 16, Budget: 768,
		},
		// composed-broken-adopt: the fig1 adopt race under the *emulated*
		// detector. The task runner rotates each process between its
		// extraction and protocol tasks, so fig1's 17-grant witness doubles
		// to ~38 grants of controlled prefix: depth 44 is the shallowest
		// level that contains it (the depth-40 tree exhausts without a kill),
		// and the kill lands around 600k runs.
		{
			System: "composed-broken-adopt", N: 2, F: 1,
			Property: "agreement", Pattern: "wrong-adopt-order",
			CrashTimes: []sim.Time{0}, MaxDepth: 44, MaxRuns: 1_000_000,
			Budget: 4096, Symmetry: true,
		},
		// composed-garbled-echo: the emulated Υ settles on the complement of
		// the Ω leader, so the leader is a live citizen of the protocol's
		// rounds in every root run — its garbled D[r] echo is adopted and
		// decided, killing Validity through the whole pipeline. (The skip-on-
		// change mutation is deliberately absent from the composition: the
		// emulated output only changes pre-settle, before any decision, so
		// the armed skip cannot break Agreement — depth-48 sweeps past 6M
		// runs found no kill.)
		{
			System: "composed-garbled-echo", N: 2, F: 1,
			Property: "validity", Pattern: "unproposed-decision",
			CrashTimes: []sim.Time{0}, MaxDepth: 1, MaxRuns: 8, Budget: 4096,
		},
		// composed-garbled-decide: root-run validity kill through the whole
		// extraction∘protocol pipeline.
		{
			System: "composed-garbled-decide", N: 2, F: 1,
			Property: "validity", Pattern: "unproposed-decision",
			CrashTimes: []sim.Time{0}, MaxDepth: 1, MaxRuns: 4, Budget: 4096,
		},
	}
}

// zooEntry looks up a mutant by system name.
func zooEntry(system string) (Mutant, error) {
	for _, m := range MutantZoo() {
		if m.System == system {
			return m, nil
		}
	}
	return Mutant{}, fmt.Errorf("explore: no mutant zoo entry for system %q", system)
}
