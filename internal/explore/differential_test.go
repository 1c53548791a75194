package explore

import (
	"strings"
	"testing"
)

// Differential testing of the two exploration engines: source-DPOR (the
// default) and classic DPOR must agree on what is broken and what is not.
// The multi-second sweeps these tests share with
// TestSourceVsClassicDifferential run once per test binary
// (exploreEnginesOnce). CI's explore-smoke job runs these explicitly.

// TestDifferentialCleanSuite runs the standard n ≤ 3 suite under both
// engines: both must be violation-free over the same configurations, the
// default engine's pass must not be truncated, extract-omega must have
// settled runs under both, sleep sets must prune something, and source-DPOR
// must execute strictly fewer schedules than classic DPOR in total — the
// point of source sets and wakeup sequences.
func TestDifferentialCleanSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep skipped under -short (race lane); the full lane runs it")
	}
	var sourceRuns, classicRuns, sourcePruned int64
	for _, cfg := range DefaultSweep() {
		c, _, s := cleanSuiteSweep(cfg)
		if len(s.Violations) != 0 {
			t.Errorf("%s: source-DPOR found violations on the real protocol: %v", s.System, s.Violations)
		}
		if len(c.Violations) != 0 {
			t.Errorf("%s: classic DPOR found violations on the real protocol: %v", c.System, c.Violations)
		}
		if s.Truncated {
			t.Errorf("%s: source-DPOR sweep truncated — exhaustiveness claim void", s.System)
		}
		if s.Configs != c.Configs {
			t.Errorf("%s: engines explored different config counts: %d vs %d", s.System, s.Configs, c.Configs)
		}
		if s.System == "extract-omega" {
			// Upsilon-sanity settledness is time-window-based and not
			// trace-invariant (see dpor.go): guard against a silent
			// settledness collapse that would make either pass vacuous.
			if s.SettledRuns == 0 || c.SettledRuns == 0 {
				t.Errorf("extract-omega: settled runs source=%d classic=%d; the sanity property was never exercised",
					s.SettledRuns, c.SettledRuns)
			}
		}
		sourceRuns += s.Runs
		classicRuns += c.Runs
		sourcePruned += s.Pruned
		t.Logf("%s: source %d runs (%d pruned) vs classic %d runs", s.System, s.Runs, s.Pruned, c.Runs)
	}
	if sourceRuns >= classicRuns {
		t.Errorf("source-DPOR executed %d runs, not fewer than classic DPOR's %d", sourceRuns, classicRuns)
	}
	if sourcePruned == 0 {
		t.Error("sleep sets pruned nothing across the whole suite")
	}
	t.Logf("suite totals: source %d runs + %d pruned vs classic %d runs", sourceRuns, sourcePruned, classicRuns)
}

// TestDifferentialMutantIdenticalViolations: on the wrong-adopt fig1 mutant
// at n = 2 both engines must find the *identical* set of violating
// (pattern, oracle, property) configurations — every violating config is
// enumerated (no MaxViolations cap) and compared exactly. At n = 3 the
// default engine must find what TestMutationBrokenFig1Caught requires of
// classic DPOR: agreement violations only, each with a shrunk witness.
func TestDifferentialMutantIdenticalViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep skipped under -short (race lane); the full lane runs it")
	}
	sweep := func(engine Engine) *Result {
		return Explore(Config{
			System:        BrokenFig1System(2),
			Engine:        engine,
			MaxDepth:      24,
			Budget:        2048,
			MaxViolations: 1 << 20, // enumerate every violating configuration
			Workers:       1,
		})
	}
	s, c := sweep(EngineSource), sweep(EngineDPOR)
	sk, ck := violationKeys(s), violationKeys(c)
	if strings.Join(sk, "\n") != strings.Join(ck, "\n") {
		t.Fatalf("violation sets differ at n=2:\nsource (%d):\n%s\nclassic (%d):\n%s",
			len(sk), strings.Join(sk, "\n"), len(ck), strings.Join(ck, "\n"))
	}
	if len(sk) == 0 {
		t.Fatal("neither engine found the mutant at n=2")
	}
	t.Logf("n=2: identical %d violating configs; source %d runs vs classic %d", len(sk), s.Runs, c.Runs)

	res := brokenSweep(3, EngineSource)
	if len(res.Violations) == 0 {
		t.Fatalf("n=3: source-DPOR missed the mutant (%d runs)", res.Runs)
	}
	for _, v := range res.Violations {
		if v.Property != "agreement" {
			t.Errorf("n=3: unexpected property %q", v.Property)
		}
		if int64(v.ShrunkSteps) >= v.Steps {
			t.Errorf("n=3: shrinker made no progress (%d -> %d)", v.Steps, v.ShrunkSteps)
		}
	}
	t.Logf("n=3: %d violations in %d runs; first %v", len(res.Violations), res.Runs, res.Violations[0])
}
