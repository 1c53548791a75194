package fleet

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"weakestfd/internal/explore"
)

func testSpec() Spec {
	return Spec{
		System: "fig1", N: 3, F: 2,
		CrashTimes: []int64{0}, MaxDepth: 12, Budget: 1024,
		MaxViolations: 1 << 20, Workers: 2,
	}
}

func testCheckpoint() *Checkpoint {
	spec := testSpec()
	return &Checkpoint{
		Schema:  CheckpointSchema,
		Spec:    spec,
		SpecKey: spec.Key(),
		Jobs:    10,
		Shards: []ShardRecord{
			{ID: 0, Lo: 0, Hi: 3, Result: &explore.Result{System: "fig1", Engine: "source+hash", Configs: 3, Runs: 100}},
			{ID: 2, Lo: 6, Hi: 10, Result: &explore.Result{System: "fig1", Engine: "source+hash", Configs: 4, Runs: 140,
				Violations: []*explore.Violation{{Property: "validity", Pattern: "p", Oracle: "o", Message: "m"}}}},
		},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.json")
	cp := testCheckpoint()
	if err := WriteCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Errorf("round trip drifted:\n got  %+v\n want %+v", got, cp)
	}
	if got.doneJobs() != 7 {
		t.Errorf("doneJobs = %d, want 7", got.doneJobs())
	}
	if want := []span{{0, 3}, {6, 10}}; !reflect.DeepEqual(got.doneSpans(), want) {
		t.Errorf("doneSpans = %v, want %v", got.doneSpans(), want)
	}
}

func TestCheckpointSpecKeyIgnoresWorkers(t *testing.T) {
	a, b := testSpec(), testSpec()
	b.Workers = 7
	if a.Key() != b.Key() {
		t.Error("Spec.Key varies with Workers; checkpoints would refuse to resume at a different width")
	}
	b.MaxDepth++
	if a.Key() == b.Key() {
		t.Error("Spec.Key ignores MaxDepth; different sweeps would share checkpoints")
	}
}

// schema1Checkpoint is a checkpoint in the schema-1 format, as `fdlab fleet
// -system fig1 -n 2 -max-depth 12 -crash-times 0 -procs 1` wrote it before
// the block enumerator was removed.
const schema1Checkpoint = `{
  "schema": 1,
  "spec": {"system": "fig1", "n": 2, "f": 1, "engine": "source", "max_blocks": 3, "max_block": 24,
    "max_depth": 12, "budget": 4096, "crash_times": [0], "flip_times": [2, 14], "max_violations": 4, "workers": 2},
  "spec_key": "{\"system\":\"fig1\",\"n\":2,\"f\":1,\"engine\":\"source\",\"max_blocks\":3,\"max_block\":24,\"max_depth\":12,\"budget\":4096,\"crash_times\":[0],\"flip_times\":[2,14],\"max_violations\":4}",
  "jobs": 6,
  "shards": [{"id": 0, "lo": 0, "hi": 1, "result": {"system": "fig1", "engine": "source+hash", "configs": 1,
    "runs": 13, "pruned": 12, "joined": 0, "depth_limited": true, "max_steps": 37, "settled_runs": 0, "elapsed_ms": 0}}]
}`

// schema2Checkpoint is a checkpoint in the schema-2 format, as `fdlab fleet`
// wrote it for a classic-DPOR sweep of fig1 at n=2 (max depth 12, crash
// times {0}, one worker process) before classic DPOR was removed.
const schema2Checkpoint = `{
  "schema": 2,
  "spec": {"system": "fig1", "n": 2, "f": 1, "engine": "classic",
    "max_depth": 12, "budget": 4096, "crash_times": [0], "flip_times": [2, 14], "max_violations": 4, "workers": 2},
  "spec_key": "{\"system\":\"fig1\",\"n\":2,\"f\":1,\"engine\":\"classic\",\"max_depth\":12,\"budget\":4096,\"crash_times\":[0],\"flip_times\":[2,14],\"max_violations\":4}",
  "jobs": 6,
  "shards": [{"id": 0, "lo": 0, "hi": 1, "result": {"system": "fig1", "engine": "classic", "configs": 1,
    "runs": 121, "pruned": 12, "joined": 0, "depth_limited": true, "max_steps": 37, "settled_runs": 0, "elapsed_ms": 1}}]
}`

// schema3Checkpoint is a checkpoint in the schema-3 format, as `fdlab fleet
// -system fig1 -n 2 -max-depth 12 -crash-times 0 -sym -procs 1` wrote it
// before the symmetry spec field was removed.
const schema3Checkpoint = `{
  "schema": 3,
  "spec": {"system": "fig1", "n": 2, "f": 1, "max_depth": 12, "budget": 4096, "crash_times": [0],
    "flip_times": [2, 14], "symmetry": true, "max_violations": 4, "workers": 2},
  "spec_key": "{\"system\":\"fig1\",\"n\":2,\"f\":1,\"max_depth\":12,\"budget\":4096,\"crash_times\":[0],\"flip_times\":[2,14],\"symmetry\":true,\"max_violations\":4}",
  "jobs": 4,
  "shards": [{"id": 0, "lo": 0, "hi": 1, "result": {"system": "fig1", "engine": "source+hash", "configs": 1,
    "runs": 13, "pruned": 12, "joined": 0, "depth_limited": true, "max_steps": 37, "settled_runs": 0, "elapsed_ms": 0}}]
}`

// TestCheckpointRejectsLoudly drives every structural failure mode through
// LoadCheckpoint and demands an error naming the problem.
func TestCheckpointRejectsLoudly(t *testing.T) {
	dir := t.TempDir()
	write := func(t *testing.T, mutate func(c *Checkpoint)) string {
		t.Helper()
		cp := testCheckpoint()
		mutate(cp)
		data, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, strings.ReplaceAll(t.Name(), "/", "_")+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	expectErr := func(t *testing.T, path, substr string) {
		t.Helper()
		_, err := LoadCheckpoint(path)
		if err == nil {
			t.Fatalf("LoadCheckpoint accepted a checkpoint that should fail with %q", substr)
		}
		if !strings.Contains(err.Error(), substr) {
			t.Errorf("error %q does not name the problem (want substring %q)", err, substr)
		}
	}

	t.Run("missing-file", func(t *testing.T) {
		expectErr(t, filepath.Join(dir, "nope.json"), "reading checkpoint")
	})
	t.Run("corrupt-json", func(t *testing.T) {
		path := filepath.Join(dir, "torn.json")
		os.WriteFile(path, []byte(`{"schema": 1, "shards": [{"id"`), 0o644)
		expectErr(t, path, "not valid JSON")
	})
	t.Run("stale-schema", func(t *testing.T) {
		expectErr(t, write(t, func(c *Checkpoint) { c.Schema = CheckpointSchema + 1 }), "schema")
	})
	t.Run("schema-1-with-block-fields", func(t *testing.T) {
		// Every schema-1 checkpoint carries the block enumerator's bounds,
		// copied from the CLI flag defaults. Without the schema check this
		// file would fail spec_key verification and be misdiagnosed as
		// hand-edited.
		path := filepath.Join(dir, "schema1.json")
		os.WriteFile(path, []byte(schema1Checkpoint), 0o644)
		expectErr(t, path, "checkpoint schema 1, this build reads schema 4")
	})
	t.Run("schema-2-classic-spec", func(t *testing.T) {
		// A schema-2 checkpoint of a classic-DPOR sweep. JSON decoding drops
		// the unknown engine field, so only the schema check stops it from
		// resuming as a source-DPOR sweep.
		path := filepath.Join(dir, "schema2.json")
		os.WriteFile(path, []byte(schema2Checkpoint), 0o644)
		expectErr(t, path, "checkpoint schema 2, this build reads schema 4")
	})
	t.Run("schema-3-symmetric-spec", func(t *testing.T) {
		// A schema-3 checkpoint of a sweep over crash sets up to renaming.
		// JSON decoding drops the unknown symmetry field, so without the
		// schema check it would be misdiagnosed as hand-edited.
		path := filepath.Join(dir, "schema3.json")
		os.WriteFile(path, []byte(schema3Checkpoint), 0o644)
		expectErr(t, path, "checkpoint schema 3, this build reads schema 4")
	})
	t.Run("spec-key-mismatch", func(t *testing.T) {
		expectErr(t, write(t, func(c *Checkpoint) { c.Spec.MaxDepth = 99 }), "spec_key")
	})
	t.Run("overlapping-shards", func(t *testing.T) {
		expectErr(t, write(t, func(c *Checkpoint) {
			c.Shards[1].Lo, c.Shards[1].Hi = 2, 6
			c.Shards[1].Result.Configs = 4
		}), "overlap")
	})
	t.Run("invalid-span", func(t *testing.T) {
		expectErr(t, write(t, func(c *Checkpoint) { c.Shards[0].Hi = 99 }), "invalid span")
	})
	t.Run("missing-result", func(t *testing.T) {
		expectErr(t, write(t, func(c *Checkpoint) { c.Shards[0].Result = nil }), "no result")
	})
	t.Run("configs-span-mismatch", func(t *testing.T) {
		expectErr(t, write(t, func(c *Checkpoint) { c.Shards[0].Result.Configs = 99 }), "configs")
	})
}

// TestWriteCheckpointAtomic asserts a rewrite never leaves a torn file
// behind: the temp file is cleaned up and the previous content survives a
// failed write directory.
func TestWriteCheckpointAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.json")
	if err := WriteCheckpoint(path, testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(path, testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("checkpoint dir holds %d entries after rewrites, want only the checkpoint", len(entries))
	}
}
