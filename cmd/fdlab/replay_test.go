package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"weakestfd/internal/explore"
)

// corpusArtifact resolves a committed counterexample from the explore
// package's regression corpus — the CLI tests replay the same artifacts the
// corpus gate does, so the two can never disagree about what reproduces.
func corpusArtifact(t *testing.T, name string) string {
	t.Helper()
	path := filepath.Join("..", "..", "internal", "explore", "testdata", "corpus", name)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("corpus artifact missing: %v", err)
	}
	return path
}

// TestReplayReproducesCorpusArtifact pins the success contract: exit 0, the
// reproduced violation, and the named failure pattern with its narrative.
func TestReplayReproducesCorpusArtifact(t *testing.T) {
	var out strings.Builder
	code := replayArtifact(&out, corpusArtifact(t, "fig1-broken-adopt.json"), false)
	if code != 0 {
		t.Fatalf("exit code %d, want 0; output:\n%s", code, out.String())
	}
	for _, want := range []string{
		"violation reproduced",
		"failure pattern: wrong-adopt-order",
		"adopting the minimum",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "WARNING") {
		t.Errorf("classification drift warning on a fresh corpus artifact:\n%s", out.String())
	}
}

// TestReplayTraceIncludesNarrative asserts -trace keeps the classification:
// the step lines land before the verdict, not instead of it.
func TestReplayTraceIncludesNarrative(t *testing.T) {
	var out strings.Builder
	code := replayArtifact(&out, corpusArtifact(t, "fig1-garbled-decide.json"), true)
	if code != 0 {
		t.Fatalf("exit code %d, want 0; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "  step ") {
		t.Errorf("trace mode printed no step lines:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "failure pattern: unproposed-decision") {
		t.Errorf("trace mode dropped the classification:\n%s", out.String())
	}
}

// TestReplayNonReproductionExitsOne replays a schedule against the correct
// protocol: nothing violates, so the CLI must exit 1 and say so.
func TestReplayNonReproductionExitsOne(t *testing.T) {
	a := &explore.Artifact{
		Schema:       3,
		System:       "fig1",
		N:            2,
		F:            1,
		OracleName:   "U={p1}",
		OracleStable: []int{0},
		Budget:       2048,
		Schedule:     []int{0, 1, 0, 1},
		Property:     "agreement",
		Violation:    "hand-written: never reproduces against the correct protocol",
		PatternName:  "wrong-adopt-order",
	}
	path := filepath.Join(t.TempDir(), "stale.json")
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if code := replayArtifact(&out, path, false); code != 1 {
		t.Fatalf("exit code %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "did NOT reproduce") {
		t.Errorf("missing non-reproduction message:\n%s", out.String())
	}
}

// TestReplayUnloadableExitsOne covers the error path: a missing artifact is
// exit 1, not a crash.
func TestReplayUnloadableExitsOne(t *testing.T) {
	var out strings.Builder
	if code := replayArtifact(&out, filepath.Join(t.TempDir(), "missing.json"), false); code != 1 {
		t.Fatalf("exit code %d, want 1; output:\n%s", code, out.String())
	}
}
