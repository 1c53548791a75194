package scenarios

import (
	"strconv"
	"testing"

	"weakestfd/internal/lab"
)

func TestAllExpands(t *testing.T) {
	scs, err := lab.ExpandAll(All(2))
	if err != nil {
		t.Fatal(err)
	}
	fams := lab.Families(scs)
	want := []string{"fig1", "fig2", "extract", "compose", "timing", "waves", "late", "adversary"}
	if len(fams) != len(want) {
		t.Fatalf("families %v, want %v", fams, want)
	}
	for i, f := range want {
		if fams[i] != f {
			t.Fatalf("families %v, want %v", fams, want)
		}
	}
	counts := make(map[string]int)
	for _, s := range scs {
		counts[s.Family]++
	}
	// Spot-check the cell counts implied by the axes.
	if counts["fig1"] != 4*3*3*2 {
		t.Errorf("fig1 has %d cells, want %d", counts["fig1"], 4*3*3*2)
	}
	// fig2 skips f >= n: n=4 keeps f∈{1,2,3} (f=3 is the wait-free boundary),
	// n=6 keeps {1,2,3,5}, n=8 keeps {1,2,3,5,7}.
	if counts["fig2"] != (3+4+5)*2 {
		t.Errorf("fig2 has %d cells, want %d", counts["fig2"], (3+4+5)*2)
	}
	if counts["adversary"] != 3*2*2 {
		t.Errorf("adversary has %d cells, want %d", counts["adversary"], 3*2*2)
	}
}

func TestFamilyLookup(t *testing.T) {
	if _, ok := ByFamily("waves", 1); !ok {
		t.Fatal("waves family not found")
	}
	if _, ok := ByFamily("nope", 1); ok {
		t.Fatal("unknown family found")
	}
	if len(FamilyNames()) != 8 {
		t.Fatalf("family names %v", FamilyNames())
	}
}

// TestQuickDeterministicAcrossWorkers is the repo's acceptance check in
// miniature: running real simulations through the engine produces identical
// aggregate results at workers=1 and workers=4, and those results are pinned.
func TestQuickDeterministicAcrossWorkers(t *testing.T) {
	scs, err := lab.ExpandAll(Quick(2))
	if err != nil {
		t.Fatal(err)
	}
	serial := lab.Run(scs, lab.Options{Workers: 1})
	parallel := lab.Run(scs, lab.Options{Workers: 4})
	if serial.Fingerprint() != parallel.Fingerprint() {
		t.Fatalf("aggregate results differ across worker counts:\n  1: %s\n  4: %s",
			serial.Fingerprint(), parallel.Fingerprint())
	}
	// The fingerprint hashes every scenario's aggregated metrics, so it moves
	// with any change to what the matrix simulates; the step total says how
	// much moved.
	steps := 0.0
	for _, s := range serial.Scenarios {
		m := s.Metric("steps")
		steps += m.Mean * float64(m.N)
	}
	const wantFP, wantSteps = "d0a8001f593ea0f73467cdcf9e80c62bc120951fa1bebf6a6082fba0d465cba7", 481319
	if fp := serial.Fingerprint(); fp != wantFP || steps != wantSteps {
		t.Errorf("quick matrix drifted: fingerprint %s over %v simulated steps, want %s over %d",
			fp, steps, wantFP, wantSteps)
	}
	if serial.Failed != 0 {
		for _, s := range serial.Scenarios {
			if s.Failed > 0 {
				t.Errorf("%s failed %d/%d: %v", s.Name, s.Failed, s.Runs, s.Errors)
			}
		}
	}
	// Every fig1 cell must respect the paper's bound: ≤ n−1 distinct values.
	for _, s := range serial.Family("fig1") {
		n, err := strconv.Atoi(s.Params["n"])
		if err != nil {
			t.Fatalf("bad n param %q", s.Params["n"])
		}
		if d := s.Metric("distinct").Max; d > float64(n-1) {
			t.Errorf("%s decided %v distinct values, bound %d", s.Name, d, n-1)
		}
	}
}

// TestAdversaryFamilyFalsifiesAll runs the deterministic adversary matrix
// and requires every candidate extractor to be falsified (Theorems 1/5).
func TestAdversaryFamilyFalsifiesAll(t *testing.T) {
	if testing.Short() {
		t.Skip("adversary runs are slow")
	}
	rep := lab.Run(Adversary().Expand(), lab.Options{})
	for _, s := range rep.Scenarios {
		if s.Failed > 0 {
			t.Errorf("%s: %v", s.Name, s.Errors)
			continue
		}
		if s.Metric("falsified").Min != 1 {
			t.Errorf("%s not falsified", s.Name)
		}
	}
}

func TestWavePatterns(t *testing.T) {
	crash := Wave(2, 100)(6)
	if len(crash) != 5 {
		t.Fatalf("wave crashed %d processes, want 5", len(crash))
	}
	if _, ok := crash[0]; ok {
		t.Fatal("wave crashed p0")
	}
	if crash[1] != 100 || crash[2] != 100 || crash[3] != 200 || crash[5] != 300 {
		t.Fatalf("bad wave times %v", crash)
	}
}
