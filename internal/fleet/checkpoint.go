package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"weakestfd/internal/explore"
)

// CheckpointSchema versions the checkpoint file format. Bump it whenever a
// field changes meaning; Load refuses other schemas loudly rather than
// resuming a sweep it would silently mis-merge. Schema 2 dropped the block
// enumerator's max_blocks and max_block spec fields and normalized crash
// grids, which can reorder a sweep's jobs. Schema 3 dropped the engine spec
// field: JSON decoding ignores unknown fields, so without the bump a schema-2
// checkpoint of a classic-DPOR sweep would resume as a source-DPOR one.
// Schema 4 dropped the symmetry and shrink_budget spec fields; decoding drops
// them too, so a schema-3 checkpoint that set one would otherwise fail its
// spec_key check and be misreported as hand-edited rather than stale.
const CheckpointSchema = 4

// ShardRecord is one completed shard: the job span it covered and the full
// explore.Result for exactly those jobs (counters, flags and shrunk
// violation artifacts included). Records are the unit of both resume (their
// spans are subtracted from the plan) and merging (their Results fold into
// the sweep Result).
type ShardRecord struct {
	ID int `json:"id"`
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Result is the shard's merged explore.Result; Result.Configs always
	// equals Hi-Lo.
	Result *explore.Result `json:"result"`
}

// Checkpoint is the frontier of one fleet sweep, rewritten atomically after
// every shard completion. A killed sweep resumes by loading it, validating
// identity (schema, spec key, job count) and re-planning only the uncovered
// spans; the doubled role is a persistent explored-subspace cache — any
// later sweep with the same Key can subtract these spans.
type Checkpoint struct {
	Schema int `json:"schema"`
	// Spec is the sweep being explored; SpecKey its canonical identity
	// (Spec.Key()), stored redundantly so identity comparison never
	// depends on re-marshaling stability across versions.
	Spec    Spec   `json:"spec"`
	SpecKey string `json:"spec_key"`
	// Jobs is the size of the enumerated (pattern × oracle) space; a
	// resumed run re-enumerates and must agree.
	Jobs   int           `json:"jobs"`
	Shards []ShardRecord `json:"shards"`
}

// doneSpans lists the covered spans.
func (c *Checkpoint) doneSpans() []span {
	out := make([]span, len(c.Shards))
	for i, s := range c.Shards {
		out[i] = span{Lo: s.Lo, Hi: s.Hi}
	}
	return out
}

// doneJobs is the number of jobs the checkpoint already covers.
func (c *Checkpoint) doneJobs() int {
	n := 0
	for _, s := range c.Shards {
		n += s.Hi - s.Lo
	}
	return n
}

// validate rejects structurally broken checkpoints: a malformed frontier
// must abort the resume, not silently re-run or skip jobs.
func (c *Checkpoint) validate() error {
	if c.Schema != CheckpointSchema {
		return fmt.Errorf("fleet: checkpoint schema %d, this build reads schema %d — refusing a stale or future checkpoint", c.Schema, CheckpointSchema)
	}
	if c.SpecKey != c.Spec.Key() {
		return fmt.Errorf("fleet: checkpoint spec_key does not match its spec (corrupt or hand-edited checkpoint)")
	}
	if c.Jobs <= 0 {
		return fmt.Errorf("fleet: checkpoint claims %d jobs", c.Jobs)
	}
	covered := make([]bool, c.Jobs)
	for _, s := range c.Shards {
		if s.Lo < 0 || s.Hi > c.Jobs || s.Lo >= s.Hi {
			return fmt.Errorf("fleet: checkpoint shard %d covers invalid span [%d,%d) of %d jobs", s.ID, s.Lo, s.Hi, c.Jobs)
		}
		if s.Result == nil {
			return fmt.Errorf("fleet: checkpoint shard %d has no result", s.ID)
		}
		if s.Result.Configs != s.Hi-s.Lo {
			return fmt.Errorf("fleet: checkpoint shard %d result covers %d configs, span says %d", s.ID, s.Result.Configs, s.Hi-s.Lo)
		}
		for i := s.Lo; i < s.Hi; i++ {
			if covered[i] {
				return fmt.Errorf("fleet: checkpoint shards overlap at job %d", i)
			}
			covered[i] = true
		}
	}
	return nil
}

// WriteCheckpoint writes the checkpoint atomically (temp file + rename in
// the destination directory), so a kill mid-write leaves the previous
// frontier intact instead of a torn file.
func WriteCheckpoint(path string, c *Checkpoint) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("fleet: encoding checkpoint: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".fleet-checkpoint-*")
	if err != nil {
		return fmt.Errorf("fleet: writing checkpoint: %w", err)
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("fleet: writing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("fleet: writing checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("fleet: writing checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads and validates a checkpoint. Every failure mode —
// unreadable file, malformed JSON, wrong schema, inconsistent frontier —
// is a loud error: resuming from a bad frontier would corrupt the sweep's
// exhaustiveness claim.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fleet: reading checkpoint: %w", err)
	}
	var c Checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("fleet: checkpoint %s is not valid JSON (truncated or corrupt): %w", path, err)
	}
	if err := c.validate(); err != nil {
		return nil, fmt.Errorf("%w (checkpoint %s)", err, path)
	}
	return &c, nil
}
