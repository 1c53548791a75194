package explore

import (
	"path/filepath"
	"slices"
	"testing"

	"weakestfd/internal/check"
	"weakestfd/internal/converge"
	"weakestfd/internal/core"
	"weakestfd/internal/sim"
)

// brokenSweep runs the calibration sweep against the wrong-adopt fig1
// mutant at the given size. The branch horizon of 24 comfortably contains
// the mutant's minimal witnesses (17 steps at n=2, 22 at n=3); the
// per-config run cap only bounds the violation-free configurations the DFS
// would otherwise exhaust.
func brokenSweep(n int) *Result {
	return Explore(Config{
		System:   mustSystem("fig1-broken-adopt", n, n-1),
		MaxDepth: 24,
		MaxRuns:  150_000,
		Budget:   2048,
		Symmetry: true,
	})
}

// TestMutationBrokenFig1Caught proves the explorer earns its keep: the fig1
// variant with a broken converge adopt rule (core.MutWrongAdopt) violates
// Agreement under an interleaving the explorer finds, shrinks, and emits as
// a replayable artifact — while TestMutationEscapesRandomTesting shows the
// same mutant sails through seeded-random testing of the kind every other
// suite in this repository performs. At n=2 the sweep must also report every
// violating configuration the ground-truth oracle finds.
func TestMutationBrokenFig1Caught(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep skipped under -short (race lane); the full lane runs it")
	}
	for _, n := range []int{2, 3} {
		res := brokenSweep(n)
		if len(res.Violations) == 0 {
			t.Fatalf("n=%d: explorer missed the wrong-adopt mutant (%d runs)", n, res.Runs)
		}
		if n == 2 {
			found := violationKeys(res)
			for _, key := range runOracle(t, brokenAdoptOracle()).violating {
				if !slices.Contains(found, key) {
					t.Errorf("n=2: the sweep misses the brute-force violation %s; it found %v", key, found)
				}
			}
		}
		// Every violation, not just the first: the mutant breaks agreement
		// only, and each witness must shrink.
		for _, v := range res.Violations {
			if v.Property != "agreement" {
				t.Errorf("n=%d: violated property %q, want agreement", n, v.Property)
			}
			if v.ShrunkSteps <= 0 || int64(v.ShrunkSteps) > v.Steps {
				t.Errorf("n=%d: shrunk schedule length %d not in (0, %d]", n, v.ShrunkSteps, v.Steps)
			} else if v.ShrunkSteps == int(v.Steps) {
				t.Errorf("n=%d: shrinker made no progress (%d steps)", n, v.ShrunkSteps)
			}
		}
		t.Logf("n=%d: %d violations; first %v", n, len(res.Violations), res.Violations[0])
	}
}

// TestMutationArtifactRoundTrip writes the shrunk counterexample to disk,
// reads it back, and replays it: the violation must reproduce
// deterministically, twice.
func TestMutationArtifactRoundTrip(t *testing.T) {
	res := brokenSweep(2)
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
	var first string
	for i := 0; i < 2; i++ {
		run, violation, err := a.Replay(nil)
		if err != nil {
			t.Fatal(err)
		}
		if violation == nil {
			t.Fatalf("replay %d did not reproduce the violation (run: %d steps, decided %v)",
				i, run.Report.Steps, run.Report.Decided)
		}
		if i == 0 {
			first = violation.Error()
			if first != a.Violation {
				t.Errorf("replayed violation %q differs from recorded %q", first, a.Violation)
			}
		} else if violation.Error() != first {
			t.Errorf("replay not deterministic: %q vs %q", violation.Error(), first)
		}
	}
}

// TestMutationEscapesRandomTesting documents why the explorer exists: 500
// seeded-random schedules — more than any scenario family in internal/lab
// runs — never trip the wrong-adopt mutant, in the exact configuration the
// explorer needs only thousands of bounded schedules to break.
func TestMutationEscapesRandomTesting(t *testing.T) {
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
			machines[i] = g.MutantMachine(proposals[i], core.MutWrongAdopt)
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
			t.Fatalf("seed %d: random testing caught the mutant (%v) — the mutation test's premise no longer holds; pick a subtler mutation", seed, err)
		}
	}
}
