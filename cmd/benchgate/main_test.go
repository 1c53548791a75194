package main

import (
	"strings"
	"testing"
)

// report builds a minimal well-formed pair member: one benchmark plus the
// report-level fields the gate checks.
func report(bench benchResult) *benchReport {
	return &benchReport{
		Schema:      1,
		GOMAXPROCS:  8,
		MatrixSeeds: 2,
		Benchmarks:  []benchResult{bench},
	}
}

func runGate(t *testing.T, baseline, current benchResult) (bool, string) {
	t.Helper()
	var out strings.Builder
	failed := gate(&out, report(baseline), report(current), 0.20, 0, 0)
	return failed, out.String()
}

// TestGateZeroBaselineIsExactMatch is the regression test for the silent
// pass: fractional tolerance against a 0 ns/op or 0 allocs/op baseline
// entry used to yield a vacuous limit, letting any regression through. Zero
// baselines are now exact-match-required.
func TestGateZeroBaselineIsExactMatch(t *testing.T) {
	good := benchResult{Name: "b", NsPerOp: 100, AllocsPerOp: 10, StepsPerOp: 33}

	// 0 ns/op baseline vs a real current cost: must fail.
	if failed, out := runGate(t, benchResult{Name: "b", AllocsPerOp: 10, StepsPerOp: 33}, good); !failed {
		t.Fatalf("zero ns/op baseline passed a non-zero current:\n%s", out)
	}
	// 0 allocs/op baseline vs current allocations: must fail even within the
	// +8 grace that applies to non-zero baselines.
	zeroAllocs := benchResult{Name: "b", NsPerOp: 100, AllocsPerOp: 0, StepsPerOp: 33}
	withAllocs := benchResult{Name: "b", NsPerOp: 100, AllocsPerOp: 5, StepsPerOp: 33}
	if failed, out := runGate(t, zeroAllocs, withAllocs); !failed {
		t.Fatalf("zero allocs/op baseline passed a non-zero current:\n%s", out)
	}
	// 0 steps/op baseline vs a measured current: used to be skipped
	// entirely; must fail.
	zeroSteps := benchResult{Name: "b", NsPerOp: 100, AllocsPerOp: 10}
	if failed, out := runGate(t, zeroSteps, good); !failed {
		t.Fatalf("zero steps/op baseline passed a measured current:\n%s", out)
	}
	// Exact zero-for-zero matches pass.
	zero := benchResult{Name: "b"}
	if failed, out := runGate(t, zero, zero); failed {
		t.Fatalf("all-zero exact match failed:\n%s", out)
	}
}

func TestGateTolerance(t *testing.T) {
	base := benchResult{Name: "b", NsPerOp: 100, AllocsPerOp: 100, StepsPerOp: 33}

	// Within tolerance: pass.
	cur := base
	cur.NsPerOp = 115
	if failed, out := runGate(t, base, cur); failed {
		t.Fatalf("within-tolerance run failed:\n%s", out)
	}
	// ns/op beyond tolerance: fail.
	cur.NsPerOp = 130
	if failed, _ := runGate(t, base, cur); !failed {
		t.Fatal("25% ns/op regression passed")
	}
	// allocs/op beyond tolerance and grace: fail.
	cur = base
	cur.AllocsPerOp = 130
	if failed, _ := runGate(t, base, cur); !failed {
		t.Fatal("30% allocs/op regression passed")
	}
	// steps/op drift: fail (deterministic simulation).
	cur = base
	cur.StepsPerOp = 34
	if failed, _ := runGate(t, base, cur); !failed {
		t.Fatal("steps/op drift passed")
	}
}

func TestGateReportLevelChecks(t *testing.T) {
	base := benchResult{Name: "b", NsPerOp: 100, AllocsPerOp: 10, StepsPerOp: 33}

	// Different workloads: fail.
	b, c := report(base), report(base)
	c.MatrixSeeds = 3
	var out strings.Builder
	if !gate(&out, b, c, 0.20, 0, 0) {
		t.Fatal("matrix seeds mismatch passed")
	}
	// Different GOMAXPROCS demotes wall-clock gates to warnings but keeps
	// deterministic gates fatal.
	c = report(base)
	c.GOMAXPROCS = 1
	c.Benchmarks[0].NsPerOp = 1000
	out.Reset()
	if gate(&out, b, c, 0.20, 0, 0) {
		t.Fatalf("wall-clock regression stayed fatal on different hardware:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "warn:") {
		t.Fatalf("expected demoted warning, got:\n%s", out.String())
	}
	c.Benchmarks[0].StepsPerOp = 44
	out.Reset()
	if !gate(&out, b, c, 0.20, 0, 0) {
		t.Fatal("steps/op drift passed on different hardware")
	}
}

// TestGateExploreReduction covers the source-vs-classic run-count floor: the
// ratio is deterministic, so it stays fatal even across hardware, and a zero
// floor disables the check entirely (for baselines predating the field).
func TestGateExploreReduction(t *testing.T) {
	base := benchResult{Name: "b", NsPerOp: 100, AllocsPerOp: 10, StepsPerOp: 33}

	b, c := report(base), report(base)
	c.ExploreReduction = 1.5
	var out strings.Builder
	if !gate(&out, b, c, 0.20, 2.0, 0) {
		t.Fatalf("sub-floor explore reduction passed:\n%s", out.String())
	}
	// Above the floor: pass, and report the ratio.
	c.ExploreReduction = 12.0
	out.Reset()
	if gate(&out, b, c, 0.20, 2.0, 0) {
		t.Fatalf("above-floor explore reduction failed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "explore reduction 12.00x") {
		t.Fatalf("expected reduction line, got:\n%s", out.String())
	}
	// Stays fatal on different hardware (deterministic ratio).
	c.ExploreReduction = 1.5
	c.GOMAXPROCS = 1
	out.Reset()
	if !gate(&out, b, c, 0.20, 2.0, 0) {
		t.Fatal("sub-floor explore reduction passed on different hardware")
	}
	// Floor 0 disables the check.
	out.Reset()
	c = report(base)
	if gate(&out, b, c, 0.20, 0, 0) {
		t.Fatalf("disabled reduction check still failed:\n%s", out.String())
	}
}

// TestGateFlipReduction mirrors the explore-reduction coverage for the
// switch-budget-1 ratio guarded by flip-anchored wakeup sequences.
func TestGateFlipReduction(t *testing.T) {
	base := benchResult{Name: "b", NsPerOp: 100, AllocsPerOp: 10, StepsPerOp: 33}

	b, c := report(base), report(base)
	c.FlipReduction = 1.2
	var out strings.Builder
	if !gate(&out, b, c, 0.20, 0, 2.0) {
		t.Fatalf("sub-floor flip reduction passed:\n%s", out.String())
	}
	// Above the floor: pass, and report the ratio.
	c.FlipReduction = 7.5
	out.Reset()
	if gate(&out, b, c, 0.20, 0, 2.0) {
		t.Fatalf("above-floor flip reduction failed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "flip reduction 7.50x") {
		t.Fatalf("expected flip-reduction line, got:\n%s", out.String())
	}
	// Stays fatal on different hardware (deterministic ratio).
	c.FlipReduction = 1.2
	c.GOMAXPROCS = 1
	out.Reset()
	if !gate(&out, b, c, 0.20, 0, 2.0) {
		t.Fatal("sub-floor flip reduction passed on different hardware")
	}
	// Floor 0 disables the check.
	out.Reset()
	c = report(base)
	if gate(&out, b, c, 0.20, 0, 0) {
		t.Fatalf("disabled flip check still failed:\n%s", out.String())
	}
}
