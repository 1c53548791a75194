package explore

import (
	"path/filepath"
	"strings"
	"testing"

	"weakestfd/internal/check"
	"weakestfd/internal/converge"
	"weakestfd/internal/core"
	"weakestfd/internal/sim"
)

// Tests of the SwitchBudget dimension: schedule-controlled unstable detector
// histories. The calibration mutant is fig1-skip-on-change
// (core.MutSkipOnChange), whose broken branch is dead code under every
// stable-from-0 history — so the SwitchBudget=0 sweep must pass, seeded
// random testing must pass, and only a SwitchBudget>=1 sweep may (and must)
// find it.

// switchSweep sweeps the skip-on-change mutant at n=2 with the given switch
// budget. The branch horizon must contain the minimal witness's
// second context switch (the skipping process resumes after the laggard's
// solo decision, around depth 30); 36 leaves headroom. The crash grid is
// trimmed to crash-at-0 and the flip grid to the productive mid-cycle time —
// the full-default sweep finds the same witness, this one just keeps the
// test fast; the CI smoke job runs the mutant through `fdlab explore` with
// the same trimmed grids (the full-default mutant sweep is a multi-minute
// pass; the default grids are CI-covered by the clean fig1 n=3 sweep).
func switchSweep(budget int) *Result {
	return Explore(Config{
		System:       SkipOnChangeFig1System(2),
		SwitchBudget: budget,
		FlipTimes:    []sim.Time{14},
		CrashTimes:   []sim.Time{0},
		MaxDepth:     36,
		MaxRuns:      400_000,
		Budget:       2048,
		// One witness is all these tests need; the first violation stops the
		// sweep (the ground-truth comparison over both violating
		// configurations lives in TestDifferentialSwitchMutant).
		MaxViolations: 1,
	})
}

// TestSwitchMutantCleanAtBudgetZero: with SwitchBudget=0 the mutant is
// indistinguishable from the real protocol — the sweep must be
// violation-free, proving the violation found at budget 1 is reachable only
// through an unstable prefix.
func TestSwitchMutantCleanAtBudgetZero(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep skipped under -short (race lane); the full lane runs it")
	}
	res := switchSweep(0)
	if len(res.Violations) != 0 {
		t.Fatalf("SwitchBudget=0 sweep found violations on the stable-history-correct mutant: %v", res.Violations)
	}
	if res.Truncated {
		t.Error("budget-0 sweep truncated")
	}
}

// TestSwitchMutantCaughtAtBudgetOne: one pre-stabilization output switch
// suffices — the sweep finds an agreement violation, shrinks the schedule,
// and records a flip schedule in the witness artifact.
func TestSwitchMutantCaughtAtBudgetOne(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep skipped under -short (race lane); the full lane runs it")
	}
	res := switchSweep(1)
	if len(res.Violations) == 0 {
		t.Fatalf("SwitchBudget=1 sweep missed the skip-on-change mutant (%d runs)", res.Runs)
	}
	v := res.Violations[0]
	if v.Property != "agreement" {
		t.Fatalf("violated property %q, want agreement", v.Property)
	}
	// A shrunk schedule of length 0 is legal: it means the fair round-robin
	// tail alone reproduces the violation under the (possibly moved) flip.
	if int64(v.ShrunkSteps) >= v.Steps {
		t.Errorf("shrinker made no progress: %d -> %d", v.Steps, v.ShrunkSteps)
	}
	if len(v.Artifact.OracleFlips) == 0 {
		t.Fatalf("witness artifact carries no flip schedule; the violation should be unreachable without one: %v", v)
	}
	if v.Artifact.Schema != 3 {
		t.Errorf("witness artifact has schema %d, want 3 (classified)", v.Artifact.Schema)
	}
	if v.FailurePattern != "adopt-skipped-after-flip" {
		t.Errorf("classified as %q, want adopt-skipped-after-flip", v.FailurePattern)
	}
	if v.Artifact.PatternName != v.FailurePattern || v.Artifact.Narrative == "" {
		t.Errorf("artifact classification %q/%d-byte narrative does not mirror the violation's %q",
			v.Artifact.PatternName, len(v.Artifact.Narrative), v.FailurePattern)
	}
	if !strings.Contains(v.WitnessOracle, "pre[") {
		t.Errorf("witness oracle name %q does not render the unstable prefix", v.WitnessOracle)
	}
	t.Logf("found and shrunk: %v", v)
}

// TestSwitchMutantArtifactRoundTrip: the unstable-history counterexample
// must replay deterministically from disk, flips included.
func TestSwitchMutantArtifactRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep skipped under -short (race lane); the full lane runs it")
	}
	res := switchSweep(1)
	if len(res.Violations) == 0 {
		t.Fatal("no violation to round-trip")
	}
	path := filepath.Join(t.TempDir(), "counterexample.json")
	if err := res.Violations[0].Artifact.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	a, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.OracleFlips) == 0 {
		t.Fatal("flip schedule lost in the round trip")
	}
	for i := 0; i < 2; i++ {
		run, violation, err := a.Replay(nil)
		if err != nil {
			t.Fatal(err)
		}
		if violation == nil {
			t.Fatalf("replay %d did not reproduce (run: %d steps, decided %v)",
				i, run.Report.Steps, run.Report.Decided)
		}
		if violation.Error() != a.Violation {
			t.Errorf("replayed violation %q differs from recorded %q", violation.Error(), a.Violation)
		}
	}
}

// TestArtifactRejectsMalformed: the schema field must agree with the flip
// payload (a schema-1 file with flips replays divergently on a pre-flip
// reader), and an illegal stable set must be a clean error, not a panic.
func TestArtifactRejectsMalformed(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep skipped under -short (race lane); the full lane runs it")
	}
	res := switchSweep(1)
	if len(res.Violations) == 0 {
		t.Fatal("no violation to corrupt")
	}
	good := res.Violations[0].Artifact
	write := func(mutate func(a *Artifact)) string {
		a := *good
		mutate(&a)
		path := filepath.Join(t.TempDir(), "corrupt.json")
		if err := a.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		return path
	}

	declassify := func(a *Artifact) { a.PatternName, a.Narrative = "", "" }
	if _, err := ReadArtifact(write(func(a *Artifact) { a.Schema = 1; declassify(a) })); err == nil {
		t.Error("schema-1 artifact with oracle_flips was accepted")
	}
	if _, err := ReadArtifact(write(func(a *Artifact) { a.Schema = 2; a.OracleFlips = nil; declassify(a) })); err == nil {
		t.Error("schema-2 artifact without oracle_flips was accepted")
	}
	if _, err := ReadArtifact(write(func(a *Artifact) { a.Schema = 2 })); err == nil {
		t.Error("schema-2 artifact carrying a classification was accepted")
	}
	if _, err := ReadArtifact(write(declassify)); err == nil {
		t.Error("schema-3 artifact without a failure pattern was accepted")
	}
	if _, err := ReadArtifact(write(func(a *Artifact) { a.PatternName = "no-such-pattern" })); err == nil {
		t.Error("schema-3 artifact naming an unknown pattern was accepted")
	}

	a, err := ReadArtifact(write(func(a *Artifact) {
		a.OracleStable = []int{0, 1} // the correct set: illegal for Υ under failure-free
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Replay(nil); err == nil {
		t.Error("illegal stable set replayed without error")
	} else if !strings.Contains(err.Error(), "not legal") {
		t.Errorf("unexpected replay error: %v", err)
	}
}

// TestDifferentialSwitchMutant holds source-DPOR to the ground-truth oracle
// on the two skip-on-change mutants at SwitchBudget=1. Both are clean at
// SwitchBudget=0 (TestSwitchMutantCleanAtBudgetZero), so every witness needs
// a detector switch: the comparison covers the flip-anchored search, not
// only scheduling races.
//
//   - fig1-skip-on-change on the skipOnChangeGrid grids at depth 14: the
//     brute force and both source-DPOR variants find the identical two
//     violating configurations, one per stable set.
//   - fig2-skip-on-change at depth 10: the brute force finds both stable
//     sets violating, but source-DPOR at the same horizon reports only one.
//     The other is a listed horizon miss that depth 24 reaches.
func TestDifferentialSwitchMutant(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep skipped under -short (race lane); the full lane runs it")
	}
	grid := skipOnChangeGrid()
	grid.MaxDepth = 14
	checkIdenticalViolations(t, runOracle(t, oracleCase{name: "fig1-skip-on-change n=2 sb=1 d=14", cfg: grid}), 2)

	rep := runOracle(t, oracleCase{name: "fig2-skip-on-change n=2 sb=1 d=10", deeper: 24, cfg: Config{
		System:       mustSystem("fig2-skip-on-change", 2, 1),
		SwitchBudget: 1,
		FlipTimes:    []sim.Time{24},
		CrashTimes:   []sim.Time{0},
		MaxDepth:     10,
		Budget:       2048,
	}})
	if len(rep.violating) != 2 || len(rep.source.Violations) != 1 {
		t.Errorf("fig2-skip-on-change: brute force violates %v, source-DPOR reports %v; want 2 and 1", rep.violating, violationKeys(rep.source))
	}
}

// TestSwitchMutantEscapesRandomTesting: 500 seeded-random schedules over
// stable-from-0 histories — the regime every other suite in this repository
// tests in — cannot distinguish the mutant from the real protocol (the
// mutated branch is dead code there), in the exact configuration the
// SwitchBudget=1 sweep breaks.
func TestSwitchMutantEscapesRandomTesting(t *testing.T) {
	const n = 2
	pattern := sim.FailFree(n)
	proposals := canonicalProposals(n)
	spec := core.Upsilon(n)
	for seed := int64(1); seed <= 500; seed++ {
		stable := spec.StableChoice(pattern, seed)
		h := spec.HistoryWithStable(pattern, 0, seed, stable)
		g := core.NewFig1(n, h, converge.UseAtomic)
		machines := make([]sim.StepMachine, n)
		for i := range machines {
			machines[i] = g.MutantMachine(proposals[i], core.MutSkipOnChange)
		}
		rep, err := sim.RunMachines(sim.Config{
			Pattern:  pattern,
			Schedule: sim.NewRandom(seed),
			Budget:   1 << 16,
		}, machines)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := check.SetAgreement(rep, pattern, g.K(), proposals); err != nil {
			t.Fatalf("seed %d: random testing caught the mutant (%v) — the premise no longer holds", seed, err)
		}
	}
}

// TestFlipTimesNormalization: an unsorted or duplicated flip-time grid must
// be normalized, not crash the sweep — flipVariants assumes a strictly
// increasing grid and fd.NewUnstable panics on an unordered phase tuple.
// Unobservable times (a phase ending at t <= 1 covers no step) are dropped.
// The crash-time grid is normalized the same way, with lower bound 0.
func TestFlipTimesNormalization(t *testing.T) {
	got := Config{System: Fig1System(2), SwitchBudget: 1,
		FlipTimes: []sim.Time{14, 2, 2, 1, 0}}.withDefaults().FlipTimes
	want := []sim.Time{2, 14}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("normalized grid %v, want %v", got, want)
	}
	// A grid of entirely unobservable times must fall back to the default,
	// not silently degenerate the budget>0 sweep to stable-from-0.
	got = Config{System: Fig1System(2), SwitchBudget: 1,
		FlipTimes: []sim.Time{1}}.withDefaults().FlipTimes
	if len(got) != 2 || got[0] != 2 || got[1] != 14 {
		t.Fatalf("all-unobservable grid normalized to %v, want the {2,14} default", got)
	}
	// A duplicated crash time used to enumerate every pattern it built
	// twice (fig1 n=2: 10 configurations instead of 6), and an unsorted
	// grid reordered the jobs.
	labels := func(grid ...sim.Time) string {
		var out []string
		for _, j := range EnumerateJobs(Config{System: Fig1System(2), CrashTimes: grid}) {
			out = append(out, j.Label())
		}
		return strings.Join(out, "\n")
	}
	want0, want03 := labels(0), labels(0, 3)
	if got := labels(0, 0); got != want0 {
		t.Errorf("crash grid {0,0} enumerates\n%s\nwant the {0} grid's\n%s", got, want0)
	}
	if got := labels(3, 0, 3); got != want03 {
		t.Errorf("crash grid {3,0,3} enumerates\n%s\nwant the {0,3} grid's\n%s", got, want03)
	}
	// End-to-end regression: the unsorted grid used to panic inside a worker
	// at Instantiate (building the Unstable history). Truncation is fine —
	// every configuration still gets instantiated.
	res := Explore(Config{
		System:       Fig1System(2),
		SwitchBudget: 2,
		FlipTimes:    []sim.Time{14, 2, 2},
		CrashTimes:   []sim.Time{0},
		MaxDepth:     1,
		MaxRuns:      1,
		Budget:       2048,
		Workers:      1,
	})
	if len(res.Violations) != 0 {
		t.Fatalf("unexpected violations: %v", res.Violations)
	}
}

// TestBaseOracleRecovery: re-flipping a flip variant must rebuild the name
// from the remembered base, never nest "pre[" suffixes, and baseOracle must
// recover the stable-from-0 choice exactly.
func TestBaseOracleRecovery(t *testing.T) {
	base := OracleChoice{Name: "U={p1}", Stable: sim.SetOf(0)}
	v1 := base.withFlips([]FlipPhase{{Until: 2, Out: sim.SetOf(1)}})
	v2 := v1.withFlips([]FlipPhase{{Until: 8, Out: sim.SetOf(0, 1)}})
	if strings.Count(v2.Name, " pre[") != 1 {
		t.Fatalf("re-flipped name %q nests the unstable-prefix suffix", v2.Name)
	}
	if got := baseOracle(v2); got.Name != base.Name || len(got.Flips) != 0 {
		t.Fatalf("baseOracle(%q) = %+v, want name %q with no flips", v2.Name, got, base.Name)
	}
	if got := v1.withFlips(nil); got.Name != base.Name || got.base != "" {
		t.Fatalf("withFlips(nil) = %+v, want the plain base choice", got)
	}
}

// TestFlipVariantsEnumeration pins the flip-schedule enumeration: base
// choices come through unchanged, every variant's phases are strictly
// ordered with no no-op switches, and the counts match the closed form
// (per base: for k switches, C(|times|, k) time tuples × valid output
// chains).
func TestFlipVariantsEnumeration(t *testing.T) {
	base := []OracleChoice{{Name: "U={p1}", Stable: sim.SetOf(0)}}
	domain := []sim.Set{sim.SetOf(0), sim.SetOf(1), sim.SetOf(0, 1)}

	if got := flipVariants(base, domain, SwitchPlan{}); len(got) != 1 {
		t.Fatalf("zero plan returned %d choices, want the 1 base choice", len(got))
	}

	plan := SwitchPlan{Budget: 2, Times: []sim.Time{2, 8}}
	got := flipVariants(base, domain, plan)
	// k=1: 2 times × 2 outputs (≠ stable) = 4.
	// k=2: 1 time pair × |{(a,b): b ∉ {a, stable}}| over the 3-value domain
	// with stable ∈ domain: a=stable gives 2 chains, each other a gives 1,
	// so 4 chains.
	want := 1 + 4 + 4
	if len(got) != want {
		for _, o := range got {
			t.Log(o.Name)
		}
		t.Fatalf("enumerated %d choices, want %d", len(got), want)
	}
	seen := make(map[string]bool)
	for _, o := range got {
		if seen[o.Name] {
			t.Errorf("duplicate choice %q", o.Name)
		}
		seen[o.Name] = true
		var last sim.Time
		for i, f := range o.Flips {
			if f.Until <= last {
				t.Errorf("%s: phase %d not strictly later than %d", o.Name, i, last)
			}
			last = f.Until
			next := o.Stable
			if i+1 < len(o.Flips) {
				next = o.Flips[i+1].Out
			}
			if f.Out == next {
				t.Errorf("%s: phase %d is a no-op switch", o.Name, i)
			}
		}
	}
}

// TestFlipVariantsAllocBound pins the enumeration's allocation discipline:
// the recursion backtracks through one shared phase buffer, so the per-call
// prefix cloning is gone and what remains is per *emitted* variant — the
// owned phase copy and its rendered name — plus slice growth. The bound is
// deliberately loose (the name rendering costs a handful of allocations per
// variant); the regression it guards against is allocation proportional to
// the much larger interior-node count of the recursion tree.
func TestFlipVariantsAllocBound(t *testing.T) {
	base := []OracleChoice{{Name: "U={p1}", Stable: sim.SetOf(0)}}
	domain := []sim.Set{sim.SetOf(0), sim.SetOf(1), sim.SetOf(0, 1), sim.SetOf(2)}
	plan := SwitchPlan{Budget: 3, Times: []sim.Time{2, 5, 8, 11}}
	variants := len(flipVariants(base, domain, plan))
	allocs := testing.AllocsPerRun(10, func() {
		flipVariants(base, domain, plan)
	})
	if raceEnabled {
		t.Skipf("race instrumentation adds allocations (%.0f for %d variants); the bound is checked without -race", allocs, variants)
	}
	if limit := float64(16*variants + 32); allocs > limit {
		t.Fatalf("flipVariants allocated %.0f objects for %d variants; want <= %.0f (16/variant + 32)", allocs, variants, limit)
	}
}
