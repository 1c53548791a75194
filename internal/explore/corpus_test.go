package explore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The committed counterexample corpus: one shrunk schema-3 artifact per
// mutant-zoo entry, checked in under testdata/corpus/. TestCorpus is the
// regression gate — every artifact must still replay to its recorded
// violation, message included, and classify to its recorded failure
// pattern, so any refactor of the simulator, the protocols, or the
// classifier that silently changes a witness's meaning fails loudly.
// TestCorpusMatchesKills requires every zoo kill on one lab worker to
// reproduce its artifact byte for byte, so a change to the search or the
// shrinker that moves a witness fails too; with CORPUS_REGEN=1 it rebuilds
// the corpus from the zoo after an intentional change.

const corpusDir = "testdata/corpus"

// TestCorpus replays every committed artifact and asserts (a) the recorded
// violation reproduces, with the recorded message, and (b) the classifier
// still assigns the recorded failure pattern to the replayed run.
func TestCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(corpusDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 8 {
		t.Fatalf("corpus holds %d artifacts, want >= 8 (regenerate with CORPUS_REGEN=1 go test -run TestCorpusMatchesKills)", len(paths))
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			a, err := ReadArtifact(path)
			if err != nil {
				t.Fatal(err)
			}
			if a.Schema != 3 {
				t.Fatalf("corpus artifact has schema %d, want classified schema 3", a.Schema)
			}
			run, violation, err := a.Replay(nil)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if violation == nil {
				t.Fatalf("recorded %s violation did not reproduce", a.Property)
			}
			if violation.Error() != a.Violation {
				t.Errorf("replayed violation %q, artifact records %q", violation.Error(), a.Violation)
			}
			if got := Classify(run, a.Property); got.Name != a.PatternName {
				t.Errorf("replayed run classified %q, artifact records %q", got.Name, a.PatternName)
			}
		})
	}
}

// TestCorpusMatchesKills kills every zoo mutant at its recorded
// configuration on one lab worker — on more, which violation a kill meets
// first, and with it the witness, depends on timing — and requires the
// kill's artifact to equal its committed file byte for byte: the discovery
// run, the shrinker's replays on recycled worlds and the classifier's
// replay of the witness must reproduce the recorded schedule,
// configuration, message and pattern. With CORPUS_REGEN=1 it writes the
// artifacts instead, regenerating the corpus after a deliberate
// witness-changing commit.
func TestCorpusMatchesKills(t *testing.T) {
	regen := os.Getenv("CORPUS_REGEN") != ""
	for _, m := range MutantZoo() {
		m := m
		t.Run(m.System, func(t *testing.T) {
			t.Parallel()
			v, res, err := m.kill(1)
			if err != nil {
				t.Fatal(err)
			}
			if v == nil {
				t.Fatalf("mutant survived %d runs", res.Runs)
			}
			if v.FailurePattern != m.Pattern {
				t.Fatalf("kill classified %q, zoo documents %q", v.FailurePattern, m.Pattern)
			}
			path := filepath.Join(corpusDir, m.System+".json")
			if regen {
				if err := v.Artifact.WriteFile(path); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s: %s under %s, pattern %s", path, v.Property, v.WitnessPattern, v.FailurePattern)
				return
			}
			got, err := v.Artifact.encode()
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("the kill's artifact differs from %s (regenerate with CORPUS_REGEN=1 after a deliberate change):\n%s", path, got)
			}
		})
	}
}
