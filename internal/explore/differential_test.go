package explore

import (
	"strings"
	"testing"

	"weakestfd/internal/sim"
)

// Differential testing of source-DPOR against the ground-truth oracle
// (oracle_test.go): on small instances, every outcome and violation the
// unreduced enumeration finds must be reached and reported, or be a listed
// miss. CI's explore-smoke job runs these explicitly.

// TestDifferentialCleanSuite holds source-DPOR to the oracle on the real
// protocols: every DefaultSweep system at a depth the brute force affords,
// plus three switch-budget-1 grids. Neither side may find a violation, and
// the extraction must have settled runs. The crash grids are the defaults
// except on the fig1 n=3 flip grid, where crash time 3 would multiply the
// budget-0 instance's crash-time misses by the flip variants.
func TestDifferentialCleanSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep skipped under -short (race lane); the full lane runs it")
	}
	for _, oc := range []oracleCase{
		{name: "fig1 n=2 d=14", cfg: Config{System: Fig1System(2), MaxDepth: 14, Budget: 2048}},
		{name: "fig1 n=3 d=7", cfg: Config{System: Fig1System(3), MaxDepth: 7, Budget: 2048}},
		{name: "fig2 n=3 f=1 d=9", cfg: Config{System: Fig2System(3, 1), MaxDepth: 9, Budget: 2048}},
		{name: "fig2 n=3 f=2 d=7", cfg: Config{System: Fig2System(3, 2), MaxDepth: 7, Budget: 2048}, deeper: 12},
		{name: "extract-omega n=3 d=7", cfg: Config{System: ExtractOmegaSystem(3), MaxDepth: 7, Budget: 768}},
		{name: "composed n=2 d=12", cfg: Config{System: ComposedSystem(2), MaxDepth: 12, Budget: 4096}},
		{name: "timed-composed n=2 d=12", cfg: Config{System: TimedComposedSystem(2), MaxDepth: 12, Budget: 4096}},
		{name: "fig1 n=2 sb=1 d=12", cfg: Config{System: Fig1System(2), SwitchBudget: 1, MaxDepth: 12, Budget: 2048}},
		{name: "fig1 n=3 sb=1 crash=0 d=7", cfg: Config{System: Fig1System(3), SwitchBudget: 1, CrashTimes: []sim.Time{0}, MaxDepth: 7, Budget: 2048}},
		{name: "extract-omega n=2 sb=1 d=10", cfg: Config{System: ExtractOmegaSystem(2), SwitchBudget: 1, MaxDepth: 10, Budget: 768}},
	} {
		rep := runOracle(t, oc)
		if len(rep.violating) != 0 {
			t.Errorf("%s: brute force violates %v on the real protocol", oc.name, rep.violating)
		}
		for _, res := range []*Result{rep.source, rep.hash} {
			if len(res.Violations) != 0 {
				t.Errorf("%s: %s found violations on the real protocol: %v", oc.name, res.Engine, res.Violations)
			}
		}
		if oc.cfg.System.Name() == "extract-omega" && rep.source.SettledRuns == 0 {
			t.Errorf("%s: no settled run; the sanity property was never exercised", oc.name)
		}
	}
}

// brokenAdoptOracle is the oracle instance of the wrong-adopt fig1 mutant:
// depth 17 contains the n=2 witnesses, so the brute force finds both
// violating configurations.
func brokenAdoptOracle() oracleCase {
	return oracleCase{name: "fig1-broken-adopt n=2 d=17", cfg: Config{System: mustSystem("fig1-broken-adopt", 2, 1), MaxDepth: 17, Budget: 2048}}
}

// TestDifferentialMutantIdenticalViolations: the brute force, pure
// source-DPOR and source-DPOR with joins must find the identical violating
// (pattern, oracle, property) configurations on two mutants.
//
//   - fig1-broken-adopt at n = 2, a pure scheduling race: agreement under
//     both failure-free stable sets.
//   - extract-stale-leader at n = 2, a flips-plus-joins extraction kill
//     (depth 6 < budget keeps the join layer on): upsilon-sanity under both
//     crash-at-0 patterns with the corpse as the pre-flip leader. Ten
//     outcomes of the failure-free configurations are listed horizon
//     misses that depth 14 reaches.
func TestDifferentialMutantIdenticalViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep skipped under -short (race lane); the full lane runs it")
	}
	checkIdenticalViolations(t, runOracle(t, brokenAdoptOracle()), 2)
	checkIdenticalViolations(t, runOracle(t, oracleCase{name: "extract-stale-leader n=2 sb=1 d=6", deeper: 14, cfg: Config{
		System:       mustSystem("extract-stale-leader", 2, 1),
		SwitchBudget: 1,
		FlipTimes:    []sim.Time{2},
		CrashTimes:   []sim.Time{0},
		MaxDepth:     6,
		Budget:       768,
	}}), 2)
}

// checkIdenticalViolations requires the brute force and both source-DPOR
// variants to find exactly the same want violating configurations.
func checkIdenticalViolations(t *testing.T, rep *oracleReport, want int) {
	t.Helper()
	bk := strings.Join(rep.violating, "\n")
	for _, res := range []*Result{rep.source, rep.hash} {
		if got := strings.Join(violationKeys(res), "\n"); got != bk {
			t.Errorf("violation sets differ:\nbrute force (%d):\n%s\n%s (%d):\n%s",
				len(rep.violating), bk, res.Engine, len(res.Violations), got)
		}
	}
	if len(rep.violating) != want {
		t.Errorf("brute force found %d violating configs, want %d:\n%s", len(rep.violating), want, bk)
	}
	t.Logf("identical %d violating configs: %d of %d brute-force leaves violate; source %d runs",
		len(rep.violating), rep.violatingLeaves, rep.leaves, rep.source.Runs)
}
