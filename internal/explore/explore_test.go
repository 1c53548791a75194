package explore

import (
	"testing"

	"weakestfd/internal/core"
	"weakestfd/internal/sim"
)

// TestFullSweepRealProtocols is the headline soundness check: the
// bounded-exhaustive sweep over every explored schedule × crash pattern ×
// legal detector history finds no property violation in the real protocols
// for n ≤ 3. (The mutation tests prove the same sweep does catch a broken
// variant, so "no violations" is evidence, not vacuity.)
func TestFullSweepRealProtocols(t *testing.T) {
	for _, cfg := range DefaultSweep() {
		sys := cfg.System
		res := Explore(cfg)
		if len(res.Violations) != 0 {
			for _, v := range res.Violations {
				t.Errorf("%s n=%d: unexpected %v", sys.Name(), sys.N(), v)
			}
		}
		if res.Runs == 0 || res.Configs == 0 {
			t.Fatalf("%s n=%d: empty sweep (%d runs, %d configs)", sys.Name(), sys.N(), res.Runs, res.Configs)
		}
		if sys.Name() == "extract-omega" && res.SettledRuns == 0 {
			t.Errorf("extract-omega: no run settled; the sanity property was never exercised")
		}
		t.Logf("%s n=%d f=%d: %d configs, %d runs, max %d steps, %d settled, %dms",
			sys.Name(), sys.N(), sys.MaxFaults(), res.Configs, res.Runs, res.MaxSteps, res.SettledRuns, res.ElapsedMS)
	}
}

// TestExploreDeterministic: two sweeps of the same configuration visit the
// same schedules (replay is cloning, so this must hold for counterexamples
// to be reproducible) — checked for both engines.
func TestExploreDeterministic(t *testing.T) {
	for _, engine := range []Engine{EngineDPOR, EngineSource} {
		run := func() *Result {
			return Explore(Config{System: Fig1System(2), Engine: engine, MaxDepth: 20,
				Budget: 1024, Symmetry: true})
		}
		a, b := run(), run()
		if a.Runs != b.Runs || a.Configs != b.Configs || a.MaxSteps != b.MaxSteps || a.Pruned != b.Pruned {
			t.Fatalf("%v sweeps differ: (%d runs, %d configs, %d max, %d pruned) vs (%d, %d, %d, %d)",
				engine, a.Runs, a.Configs, a.MaxSteps, a.Pruned, b.Runs, b.Configs, b.MaxSteps, b.Pruned)
		}
	}
}

func TestPatternsFor(t *testing.T) {
	// Symmetric: one canonical crash set per cardinality, sorted time
	// assignments. n=3, f=2, grid {0,3}: sizes 0 (1) + 1 (2 times) +
	// 2 (3 non-decreasing pairs) = 6 patterns.
	pats := patternsFor(3, 2, []sim.Time{0, 3}, true)
	if len(pats) != 6 {
		t.Fatalf("symmetric: %d patterns, want 6: %v", len(pats), pats)
	}
	// Asymmetric: all subsets of size ≤ 2 with all time tuples:
	// 1 + 3·2 + 3·4 = 19.
	pats = patternsFor(3, 2, []sim.Time{0, 3}, false)
	if len(pats) != 19 {
		t.Fatalf("asymmetric: %d patterns, want 19", len(pats))
	}
	for _, p := range pats {
		if !p.InEnvironment(2) {
			t.Fatalf("pattern %v outside E_2", p)
		}
		if p.Correct().IsEmpty() {
			t.Fatalf("pattern %v has no correct process", p)
		}
	}
	// maxF is clamped to n−1 even when asked for more.
	for _, p := range patternsFor(2, 5, []sim.Time{0}, false) {
		if p.NumFaulty() > 1 {
			t.Fatalf("pattern %v crashes more than n-1 processes", p)
		}
	}
}

// TestPatternLabelDistinguishesCrashTimes: the violation-dedup key and the
// scenario names use patternLabel, which must keep grid points apart that
// sim.Pattern.String() conflates (it prints only the faulty set).
func TestPatternLabelDistinguishesCrashTimes(t *testing.T) {
	early := sim.CrashPattern(2, map[sim.PID]sim.Time{1: 0})
	late := sim.CrashPattern(2, map[sim.PID]sim.Time{1: 3})
	if early.String() != late.String() {
		t.Skip("sim.Pattern.String now includes crash times; patternLabel may be redundant")
	}
	if patternLabel(early) == patternLabel(late) {
		t.Fatalf("patternLabel conflates crash times: %q", patternLabel(early))
	}
	if patternLabel(sim.FailFree(3)) != "failure-free(n=3)" {
		t.Fatalf("fail-free label = %q", patternLabel(sim.FailFree(3)))
	}
	// Every pattern of a sweep's enumeration gets a distinct label (labels
	// key the dedup map and the lab scenario names).
	seen := make(map[string]bool)
	for _, p := range patternsFor(3, 2, []sim.Time{0, 3}, false) {
		l := patternLabel(p)
		if seen[l] {
			t.Fatalf("duplicate pattern label %q", l)
		}
		seen[l] = true
	}
}

func TestLegalStableSets(t *testing.T) {
	pattern := sim.FailFree(3)
	choices := legalStableSets(core.Upsilon(3), pattern)
	// All 7 non-empty subsets minus correct(F) = Π.
	if len(choices) != 6 {
		t.Fatalf("%d stable sets, want 6", len(choices))
	}
	for _, c := range choices {
		if c.Stable == pattern.Correct() {
			t.Fatalf("stable set %v equals the correct set", c.Stable)
		}
		if c.Stable.IsEmpty() {
			t.Fatal("empty stable set enumerated")
		}
	}
	// Υ^1 for n=3 requires size ≥ 2: subsets of size ≥ 2 except Π = 3.
	choices = legalStableSets(core.UpsilonF(3, 1), pattern)
	if len(choices) != 3 {
		t.Fatalf("Υ^1: %d stable sets, want 3", len(choices))
	}
}
