package explore

import (
	"testing"
)

// TestMutantZoo is the mutant gate: every zoo entry must be killed by its
// recorded cheapest sweep AND classified to its documented failure pattern.
// This is the calibration contract of the explorer — a mutant surviving, or
// a kill classifying to the wrong pattern, means either the search or the
// classifier regressed. CI's test job runs it, and its race job ten times
// under the race detector; `go test -short` skips the expensive sweeps.
func TestMutantZoo(t *testing.T) {
	zoo := MutantZoo()
	perSystem := make(map[string]int)
	for _, m := range zoo {
		perSystem[familyOf(m.System)]++
	}
	for _, fam := range []string{"fig1", "fig2", "extract-omega", "composed"} {
		if perSystem[fam] < 3 {
			t.Errorf("protocol system %s has %d mutants, want >= 3", fam, perSystem[fam])
		}
	}
	for _, m := range zoo {
		m := m
		t.Run(m.System, func(t *testing.T) {
			if testing.Short() && m.MaxDepth > 1 {
				t.Skip("branching sweep skipped in -short mode (the full test run covers it)")
			}
			t.Parallel()
			if _, ok := PatternByName(m.Pattern); !ok {
				t.Fatalf("zoo entry documents unknown pattern %q", m.Pattern)
			}
			v, res, err := m.Kill()
			if err != nil {
				t.Fatal(err)
			}
			if v == nil {
				t.Fatalf("mutant survived its cheapest killing sweep (%d runs, %d violations of other properties)",
					res.Runs, len(res.Violations))
			}
			if v.FailurePattern != m.Pattern {
				t.Fatalf("kill classified as %q, want %q (violation: %v)", v.FailurePattern, m.Pattern, v)
			}
			if v.Narrative == "" || v.Artifact.PatternName != m.Pattern {
				t.Errorf("classification not mirrored into the artifact: pattern %q, %d-byte narrative",
					v.Artifact.PatternName, len(v.Narrative))
			}
			t.Logf("killed in %d runs (%dms): %v", res.Runs, res.ElapsedMS, v)
		})
	}
}

// familyOf maps a mutant system name to its protocol family's registry name.
func familyOf(system string) string {
	switch {
	case len(system) >= 8 && system[:8] == "extract-":
		return "extract-omega"
	case len(system) >= 9 && system[:9] == "composed-":
		return "composed"
	case len(system) >= 5 && system[:5] == "fig2-":
		return "fig2"
	case len(system) >= 5 && system[:5] == "fig1-":
		return "fig1"
	}
	return system
}
