package explore

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"weakestfd/internal/sim"
)

// Artifact is a replayable counterexample: everything needed to rebuild the
// configuration and re-execute the violating schedule deterministically.
// `fdlab replay` consumes these files; the explorer emits them.
type Artifact struct {
	Schema int `json:"schema"`
	// System is the registry name (see NewSystem) and N/F its size and
	// resilience.
	System string `json:"system"`
	N      int    `json:"n"`
	F      int    `json:"f"`
	// Proposals documents the canonical inputs of the run (informational;
	// systems regenerate them).
	Proposals []int64 `json:"proposals,omitempty"`
	// Crashes maps 0-based PIDs (as JSON object keys) to crash times.
	Crashes map[string]int64 `json:"crashes,omitempty"`
	// Oracle reconstructs the detector history: its stable set and the
	// unstable prefix — the pre-stabilization phases, each output Out while
	// t < Until.
	OracleName   string         `json:"oracle"`
	OracleStable []int          `json:"oracle_stable"`
	OracleFlips  []ArtifactFlip `json:"oracle_flips,omitempty"`
	// Budget is the step cap of the run.
	Budget int64 `json:"budget"`
	// Schedule is the (shrunk) grant sequence; replay follows it through a
	// sim.FixedSchedule with a fair round-robin tail.
	Schedule []int `json:"schedule"`
	// Property and Violation record what failed and how.
	Property  string `json:"property"`
	Violation string `json:"violation"`
	// PatternName and Narrative record the named failure pattern the
	// classifier assigned to the shrunk witness and its human-readable
	// story; `fdlab replay` prints both, and the corpus regression tests
	// assert the classification reproduces.
	PatternName string `json:"pattern,omitempty"`
	Narrative   string `json:"narrative,omitempty"`
}

// artifactSchema versions the artifact format. Schema 1 had no flips and
// schema 2 no failure-pattern classification; nothing writes either any
// more, and ReadArtifact refuses them.
const artifactSchema = 3

// ArtifactFlip is one recorded pre-stabilization phase: the history outputs
// the set Out (0-based PIDs) while t < Until.
type ArtifactFlip struct {
	Until int64 `json:"until"`
	Out   []int `json:"out"`
}

// newArtifact assembles the artifact for one shrunk violation. The recorded
// configuration is the *witness* configuration — the shrinker may have
// dropped crashes, shrunk the oracle, and dropped or delayed history flips
// relative to the discovery run. F is the E_f the sweep explored.
func newArtifact(cfg Config, run *Run, property string, w witness, fp FailurePattern) *Artifact {
	a := &Artifact{
		Schema:      artifactSchema,
		System:      run.System,
		N:           cfg.System.N(),
		F:           cfg.System.MaxFaults(),
		OracleName:  w.oracle.Name,
		Budget:      cfg.Budget,
		Property:    property,
		Violation:   w.message,
		PatternName: fp.Name,
		Narrative:   fp.Narrative,
	}
	for _, v := range run.Proposals {
		a.Proposals = append(a.Proposals, int64(v))
	}
	for _, p := range w.pattern.Faulty().Members() {
		if a.Crashes == nil {
			a.Crashes = make(map[string]int64)
		}
		a.Crashes[strconv.Itoa(int(p))] = int64(w.pattern.CrashAt(p))
	}
	for _, p := range w.oracle.Stable.Members() {
		a.OracleStable = append(a.OracleStable, int(p))
	}
	for _, f := range w.oracle.Flips {
		af := ArtifactFlip{Until: int64(f.Until)}
		for _, p := range f.Out.Members() {
			af.Out = append(af.Out, int(p))
		}
		a.OracleFlips = append(a.OracleFlips, af)
	}
	a.Schedule = make([]int, len(w.schedule))
	for i, p := range w.schedule {
		a.Schedule[i] = int(p)
	}
	return a
}

// WriteFile writes the artifact as indented JSON.
func (a *Artifact) WriteFile(path string) error {
	data, err := a.encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// encode renders the artifact as WriteFile writes it.
func (a *Artifact) encode() ([]byte, error) {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ReadArtifact loads an artifact file.
func ReadArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if a.Schema != artifactSchema {
		return nil, fmt.Errorf("%s: unsupported artifact schema %d (this build reads schema %d)", path, a.Schema, artifactSchema)
	}
	// A file must name a pattern the library knows, or replay would print
	// an unverifiable narrative.
	if a.PatternName == "" {
		return nil, fmt.Errorf("%s: artifact has no failure pattern", path)
	}
	if _, ok := PatternByName(a.PatternName); !ok {
		return nil, fmt.Errorf("%s: unknown failure pattern %q", path, a.PatternName)
	}
	// Validate the flip schedule at load time: callers print flip lines
	// straight from a loaded artifact, assuming ascending Until and
	// in-range outputs.
	if _, err := a.flipPhases(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if a.N < 2 || a.N > sim.MaxProcs {
		return nil, fmt.Errorf("%s: n=%d out of range [2,%d]", path, a.N, sim.MaxProcs)
	}
	if a.F < 1 || a.F > a.N-1 {
		return nil, fmt.Errorf("%s: f=%d out of range [1,%d]", path, a.F, a.N-1)
	}
	if a.Budget <= 0 {
		return nil, fmt.Errorf("%s: non-positive budget %d", path, a.Budget)
	}
	return &a, nil
}

// pattern reconstructs the failure pattern.
func (a *Artifact) pattern() (sim.Pattern, error) {
	crashes := make(map[sim.PID]sim.Time, len(a.Crashes))
	//lint:fdlint determinism -- map-to-map reconstruction: the resulting pattern is independent of iteration order
	for key, t := range a.Crashes {
		pid, err := strconv.Atoi(key)
		if err != nil || pid < 0 || pid >= a.N {
			return sim.Pattern{}, fmt.Errorf("explore: bad crash pid %q for n=%d", key, a.N)
		}
		crashes[sim.PID(pid)] = sim.Time(t)
	}
	return sim.CrashPattern(a.N, crashes), nil
}

// flipPhases reconstructs and validates the artifact's unstable prefix —
// the single validation path shared by ReadArtifact and Replay.
func (a *Artifact) flipPhases() ([]FlipPhase, error) {
	var flips []FlipPhase
	for i, af := range a.OracleFlips {
		var out sim.Set
		for _, p := range af.Out {
			if p < 0 || p >= a.N {
				return nil, fmt.Errorf("explore: oracle_flips[%d] output pid %d out of range for n=%d", i, p, a.N)
			}
			out = out.Add(sim.PID(p))
		}
		flips = append(flips, FlipPhase{Until: sim.Time(af.Until), Out: out})
	}
	if err := validateFlips(flips, a.N); err != nil {
		return nil, err
	}
	return flips, nil
}

// Replay rebuilds the configuration and re-executes the recorded schedule
// through a sim.FixedSchedule on fresh state. It returns the completed run
// and the property-check error — non-nil exactly when the recorded
// violation reproduced. hook, when non-nil, observes every grant (for step
// traces). The replay records shared-object accesses: the returned run's
// Report.Accesses holds the per-step access sets, aligned with the grant
// indices the hook saw.
func (a *Artifact) Replay(hook func(idx int, t sim.Time, enabled sim.Set, chosen sim.PID)) (*Run, error, error) {
	sys, err := NewSystem(a.System, a.N, a.F)
	if err != nil {
		return nil, nil, err
	}
	pattern, err := a.pattern()
	if err != nil {
		return nil, nil, err
	}
	var stable sim.Set
	for _, p := range a.OracleStable {
		if p < 0 || p >= a.N {
			return nil, nil, fmt.Errorf("explore: oracle stable pid %d out of range for n=%d", p, a.N)
		}
		stable = stable.Add(sim.PID(p))
	}
	oracle := OracleChoice{Name: a.OracleName, Stable: stable}
	flips, err := a.flipPhases()
	if err != nil {
		return nil, nil, err
	}
	// Range-check every pre-stabilization phase output against the system's
	// detector range: flipVariants only ever enumerates in-range outputs, so
	// this guards the hand-edited path — an artifact whose flip outputs a
	// Υ^f set below n+1−f (or a non-singleton for an Ω source) would indict
	// the environment, not the protocol, and must not replay.
	for i, f := range flips {
		if err := sys.LegalFlipOut(f.Out); err != nil {
			return nil, nil, fmt.Errorf("explore: oracle_flips[%d]: %w", i, err)
		}
	}
	oracle.Flips = flips
	// Reject an illegal stable set here with a proper error — Instantiate
	// treats legality as an internal invariant and panics on violations.
	if _, ok := matchOracle(sys, pattern, oracle); !ok {
		return nil, nil, fmt.Errorf("explore: oracle stable set %v is not legal for system %s under %s",
			stable, a.System, pattern)
	}

	prefix := make([]sim.PID, len(a.Schedule))
	for i, p := range a.Schedule {
		if p < 0 || p >= a.N {
			return nil, nil, fmt.Errorf("explore: schedule pid %d out of range for n=%d", p, a.N)
		}
		prefix[i] = sim.PID(p)
	}
	sched := sim.NewFixedSchedule(prefix)
	sched.OnGrant = hook

	run := execute(sys, pattern, oracle, sched, a.Budget, sim.NewAccessLog(), nil)
	run.Schedule = prefix
	var checked *error
	for _, prop := range sys.Properties() {
		if prop.Name() != a.Property {
			continue
		}
		err := prop.Check(run)
		checked = &err
	}
	if checked == nil {
		// A missing property is a stale or corrupt artifact, not a
		// non-reproduction: the recorded check was never run at all.
		return run, nil, fmt.Errorf("explore: system %s has no property %q (artifact from an older version?)",
			a.System, a.Property)
	}
	return run, *checked, nil
}
