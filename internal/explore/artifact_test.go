package explore

import (
	"strings"
	"testing"

	"weakestfd/internal/sim"
)

// flipArtifact builds a syntactically valid fig2 artifact whose
// unstable prefix is the given flip, for driving Replay's range validation.
// n=3, f=1: the Υ^f range floor is n−f = 2 processes, so singleton flip
// outputs are below range while the protocol's own flipVariants would never
// emit them — exactly the hand-edited-artifact path the check guards.
func flipArtifact(out []int) *Artifact {
	return &Artifact{
		Schema:       3,
		System:       "fig2",
		N:            3,
		F:            1,
		OracleStable: []int{0, 1},
		OracleFlips:  []ArtifactFlip{{Until: 8, Out: out}},
		Budget:       256,
		Property:     "agreement",
	}
}

// TestReplayRejectsOutOfRangeFlips is the hand-edited-artifact gate: a flip
// output outside the system's detector range must fail Replay with a
// range error, not execute as if the environment could produce it.
func TestReplayRejectsOutOfRangeFlips(t *testing.T) {
	cases := []struct {
		name    string
		a       *Artifact
		wantErr string
	}{
		{
			name:    "upsilon flip below the range floor",
			a:       flipArtifact([]int{2}),
			wantErr: "below the Υ range floor",
		},
		{
			name: "upsilon flip output not a subset of Pi",
			a: &Artifact{
				Schema: 3, System: "fig2", N: 3, F: 1,
				OracleStable: []int{0, 1},
				OracleFlips:  []ArtifactFlip{{Until: 8, Out: []int{0, 3}}},
				Budget:       256, Property: "agreement",
			},
			wantErr: "out of range",
		},
		{
			name: "omega flip with two leaders",
			a: &Artifact{
				Schema: 3, System: "extract-omega", N: 3, F: 2,
				OracleStable: []int{0},
				OracleFlips:  []ArtifactFlip{{Until: 8, Out: []int{1, 2}}},
				Budget:       256, Property: "upsilon-sanity",
			},
			wantErr: "not a singleton",
		},
		{
			name: "flip against a system that consumes no history",
			a: &Artifact{
				Schema: 3, System: "timed-composed", N: 2, F: 1,
				OracleFlips: []ArtifactFlip{{Until: 8, Out: []int{0}}},
				Budget:      256, Property: "agreement",
			},
			wantErr: "no flip schedule is legal",
		},
		{
			name:    "in-range upsilon flip replays",
			a:       flipArtifact([]int{1, 2}),
			wantErr: "",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := c.a.Replay(nil)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("legal flip rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("out-of-range flip replayed")
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

// TestArtifactRecordsExploredResilience: a system sized below n−1 sweeps
// only E_f's crash patterns, and its artifacts record that f.
func TestArtifactRecordsExploredResilience(t *testing.T) {
	cfg := Config{System: mustSystem("fig1-garbled-decide", 3, 1), CrashTimes: []sim.Time{0},
		MaxDepth: 1, MaxRuns: 4, Budget: 2048, MaxViolations: 1, Workers: 1}
	for _, j := range EnumerateJobs(cfg) {
		if j.Pattern.NumFaulty() > 1 {
			t.Fatalf("E_1 sweep enumerates %s", patternLabel(j.Pattern))
		}
	}
	res := Explore(cfg)
	if len(res.Violations) == 0 {
		t.Fatal("fig1-garbled-decide survived")
	}
	if a := res.Violations[0].Artifact; a.N != 3 || a.F != 1 {
		t.Errorf("artifact records n=%d f=%d, want the swept n=3 f=1", a.N, a.F)
	}
}
