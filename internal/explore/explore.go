package explore

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"weakestfd/internal/lab"
	"weakestfd/internal/sim"
)

// engineLabel names the engine as configured: source-DPOR, with the join
// layer on reported as "source+hash".
func engineLabel(c Config) string {
	if c.NoHash {
		return "source"
	}
	return "source+hash"
}

// Config bounds one exploration. The zero value of every field has a usable
// default; only System is required.
type Config struct {
	// System is the protocol under exploration.
	System System
	// NoHash disables the state-hash join layer, making the search pure
	// source-DPOR — the differential-testing lens for the join soundness
	// argument.
	NoHash bool
	// MaxStates caps the join cache's entries per configuration; once full,
	// new states are no longer admitted (Result.StateCapped) but cached ones
	// keep joining. Default 16384.
	MaxStates int
	// Budget caps every run's total step count. Default 4096.
	Budget int64
	// MaxDepth bounds the step depth at which the engine inserts backtrack
	// points; beyond it runs continue under the fair round-robin tail
	// without branching. 0 means the step budget: full depth, which leaves
	// no fair tail, so a run may starve an enabled process until the budget
	// runs out. Systems that check termination-of-correct therefore need a
	// horizon below Budget (fleet.Spec.Config refuses any other), and
	// non-terminating systems (the extraction, the compositions' reduction
	// tasks) need one to keep the branching frontier tractable. It is also
	// the state-hash join horizon (hash.go).
	MaxDepth int
	// MaxRuns caps the number of runs one configuration's search may
	// execute (0 = unlimited); hitting the cap marks the Result Truncated,
	// which voids the exhaustiveness claim for that sweep.
	MaxRuns int64
	// CrashTimes is the crash-time grid per faulty process. Default {0, 3}:
	// crashed-from-the-start and a mid-protocol crash.
	CrashTimes []sim.Time
	// SwitchBudget bounds the pre-stabilization output switches enumerated
	// per detector history. 0 (the default) explores only stable-from-0
	// histories — exactly the PR-4 schedule space; b >= 1 additionally
	// enumerates, per stable value, every schedule of at most b flips with
	// phase outputs from the detector's range and flip times from FlipTimes.
	// The engine stays sound under flips because the query seam records
	// queries and flips as conflicting accesses of the history object.
	SwitchBudget int
	// FlipTimes is the global-time grid flips are drawn from when
	// SwitchBudget > 0. Default {2, 14}: one flip before the protocols'
	// first query sites (the boundary case) and one inside the first
	// gladiator cycle's query window — after both processes' round-entry
	// queries but before the first re-query under interleaved schedules, the
	// region the paper's adversaries exploit.
	FlipTimes []sim.Time
	// Symmetry enumerates crash sets up to process renaming — a speed
	// heuristic, not a sound reduction, because proposals are pinned to
	// PIDs (see patternsFor). Leave false for coverage claims.
	Symmetry bool
	// Workers is the lab worker pool size; <= 0 means GOMAXPROCS.
	Workers int
	// MaxViolations stops the exploration after this many distinct
	// violations (they are deduplicated per configuration and property).
	// Default 4.
	MaxViolations int
	// OnConfig, when non-nil, receives a progress line per finished
	// (pattern × oracle) configuration. Configurations explore concurrently
	// on the lab worker pool, so OnConfig is invoked from multiple goroutines
	// at once with no ordering or mutual-exclusion guarantee: the callback
	// must be safe for concurrent use and must serialize any output it
	// produces itself (see `fdlab explore -progress` for the canonical
	// mutex-guarded printer).
	OnConfig func(name string, runs int64)

	// shrinkBudget caps the candidate replays the shrinker spends per
	// violation: shrinkReplays unless a package test sets it (negative
	// disables shrinking).
	shrinkBudget int
}

// shrinkReplays is the shrinker's per-violation replay budget.
const shrinkReplays = 2000

func (c Config) withDefaults() Config {
	if c.Budget == 0 {
		c.Budget = 4096
	}
	if c.MaxDepth <= 0 || int64(c.MaxDepth) > c.Budget {
		c.MaxDepth = int(c.Budget)
	}
	// The crash grid is a set of candidate times: a duplicate would
	// enumerate the same patterns twice under one label, and the job order
	// follows the grid's order, so it is sorted and deduplicated like the
	// flip grid below.
	c.CrashTimes = sortedTimes(c.CrashTimes, 0)
	if len(c.CrashTimes) == 0 {
		c.CrashTimes = []sim.Time{0, 3}
	}
	// flipVariants builds strictly increasing phase tuples by walking the
	// flip grid in order, and fd.NewUnstable panics on an unordered tuple —
	// normalize rather than crash mid-sweep. Normalization runs before the
	// default so that a grid of entirely unobservable times (all < 2) falls
	// back to the default grid instead of silently degenerating a
	// SwitchBudget>0 sweep to stable-from-0.
	c.FlipTimes = sortedTimes(c.FlipTimes, 2)
	if c.SwitchBudget > 0 && len(c.FlipTimes) == 0 {
		c.FlipTimes = []sim.Time{2, 14}
	}
	if c.MaxViolations <= 0 {
		c.MaxViolations = 4 // a non-positive cap would stop the sweep at birth
	}
	if c.MaxStates <= 0 {
		c.MaxStates = 1 << 14
	}
	if c.shrinkBudget == 0 {
		c.shrinkBudget = shrinkReplays
	}
	return c
}

// FullDepth reports whether the branch horizon reaches the step budget once
// defaults apply, which leaves runs no fair tail (see MaxDepth).
func (c Config) FullDepth() bool {
	c = c.withDefaults()
	return int64(c.MaxDepth) >= c.Budget
}

// Violation is one property failure, with its shrunk replayable artifact.
// The JSON encoding is the fleet wire and checkpoint representation, so
// field tags are part of the checkpoint schema.
type Violation struct {
	// Property is the violated property's name.
	Property string `json:"property"`
	// Message describes the failure (from Property.Check).
	Message string `json:"message"`
	// Pattern and Oracle identify the configuration the violation was
	// discovered under.
	Pattern string `json:"pattern"`
	Oracle  string `json:"oracle"`
	// WitnessPattern and WitnessOracle identify the *shrunk* witness
	// configuration: the shrinker also minimizes the configuration (drops
	// crashes from the pattern, shrinks the oracle's stable set), so these
	// may be strictly smaller than the discovery configuration. The
	// Artifact records the witness configuration.
	WitnessPattern string `json:"witness_pattern"`
	WitnessOracle  string `json:"witness_oracle"`
	// Steps is the length of the originally found violating run;
	// ShrunkSteps the length of the shrunk schedule prefix.
	Steps       int64 `json:"steps"`
	ShrunkSteps int   `json:"shrunk_steps"`
	// FailurePattern is the named failure pattern the classifier assigned to
	// the shrunk witness, and Narrative its human-readable story (see
	// classify.go). Both are recorded in the Artifact (schema 3).
	FailurePattern string `json:"failure_pattern"`
	Narrative      string `json:"narrative"`
	// Artifact is the replayable counterexample.
	Artifact *Artifact `json:"artifact,omitempty"`
}

func (v *Violation) String() string {
	where := fmt.Sprintf("%s, %s", v.Pattern, v.Oracle)
	if v.WitnessPattern != v.Pattern || v.WitnessOracle != v.Oracle {
		where += fmt.Sprintf(" (witness shrunk to %s, %s)", v.WitnessPattern, v.WitnessOracle)
	}
	return fmt.Sprintf("%s violated under %s (run %d steps, shrunk to %d): %s",
		v.Property, where, v.Steps, v.ShrunkSteps, v.Message)
}

// Result summarizes one exploration. The JSON encoding is the fleet wire
// and checkpoint representation, so field tags are part of the checkpoint
// schema.
type Result struct {
	// System is the explored system's name.
	System string `json:"system"`
	// Engine names the search that produced the result: "source+hash", or
	// "source" under Config.NoHash.
	Engine string `json:"engine"`
	// Configs is the number of (pattern × oracle) configurations.
	Configs int `json:"configs"`
	// Runs is the number of schedules executed (shrinking replays excluded).
	Runs int64 `json:"runs"`
	// Pruned counts the schedules the engine proved redundant without
	// executing them (sleep-set and source-set skips).
	Pruned int64 `json:"pruned"`
	// Joined counts the runs the source engine stopped at the branch horizon
	// because a state-hash join let them reuse an already-executed tail.
	// Joined runs are included in Runs.
	Joined int64 `json:"joined"`
	// Truncated reports that some configuration hit Config.MaxRuns, voiding
	// the sweep's exhaustiveness claim.
	Truncated bool `json:"truncated,omitempty"`
	// StateCapped reports that some configuration's join cache hit
	// Config.MaxStates and stopped admitting new states; exploration stays
	// exhaustive, only tail sharing degrades.
	StateCapped bool `json:"state_capped,omitempty"`
	// DepthLimited reports that runs went past Config.MaxDepth, i.e. the
	// exhaustiveness claim is bounded-depth: complete up to commutativity
	// over every prefix of MaxDepth steps, with the fair tail beyond.
	DepthLimited bool `json:"depth_limited,omitempty"`
	// MaxSteps is the longest run observed.
	MaxSteps int64 `json:"max_steps"`
	// SettledRuns counts extraction runs whose outputs settled (0 for
	// terminating systems, where every completed run is conclusive).
	SettledRuns int64 `json:"settled_runs"`
	// Violations are the distinct property failures, shrunk and replayable,
	// sorted by (pattern, oracle, property).
	Violations []*Violation `json:"violations,omitempty"`
	// ElapsedMS is the exploration wall-clock time; a merged Result sums the
	// shards' compute time instead.
	ElapsedMS int64 `json:"elapsed_ms"`
}

// Job is one (pattern × oracle) cell of a sweep's configuration space — the
// shard grain of distributed exploration. EnumerateJobs is deterministic, so
// any process holding the same Config rebuilds the identical job list and a
// job index range fully identifies a unit of work (internal/fleet ships
// index ranges, never jobs, over its wire protocol).
type Job struct {
	Pattern sim.Pattern
	Oracle  OracleChoice
}

// Label renders the job the way sweeps name lab scenarios and violations
// key their dedup: "<pattern>/<oracle>".
func (j Job) Label() string {
	return patternLabel(j.Pattern) + "/" + j.Oracle.Name
}

// EnumerateJobs returns cfg's (pattern × oracle) configuration space in the
// deterministic order Explore visits it.
func EnumerateJobs(cfg Config) []Job {
	return enumerateJobs(cfg.withDefaults())
}

func enumerateJobs(cfg Config) []Job {
	sys := cfg.System
	plan := SwitchPlan{Budget: cfg.SwitchBudget, Times: cfg.FlipTimes}
	patterns := patternsFor(sys.N(), sys.MaxFaults(), cfg.CrashTimes, cfg.Symmetry)
	oracles := make([][]OracleChoice, len(patterns))
	total := 0
	for i, p := range patterns {
		oracles[i] = sys.Oracles(p, plan)
		total += len(oracles[i])
	}
	jobs := make([]Job, 0, total)
	for i, p := range patterns {
		for _, o := range oracles[i] {
			jobs = append(jobs, Job{Pattern: p, Oracle: o})
		}
	}
	return jobs
}

// explorer carries the shared state of one Explore invocation.
type explorer struct {
	cfg         Config
	runs        atomic.Int64
	settled     atomic.Int64
	maxSteps    atomic.Int64
	violations  atomic.Int64
	pruned      atomic.Int64
	joined      atomic.Int64
	truncated   atomic.Bool
	stateCapped atomic.Bool

	mu    sync.Mutex
	found []*Violation
	seen  map[string]bool // config+property dedup
}

// Explore runs the bounded-exhaustive sweep for cfg.System, parallelized
// over the internal/lab worker pool: each (pattern × oracle) configuration
// becomes one lab scenario whose run is the full schedule DFS.
func Explore(cfg Config) *Result {
	cfg = cfg.withDefaults()
	return exploreJobs(cfg, enumerateJobs(cfg))
}

// ExploreJobs explores only the given subset of cfg's configuration space —
// the shard entry point for distributed sweeps (internal/fleet). The jobs
// must come from EnumerateJobs of a Config equal to cfg up to Workers;
// exploring a shard is result-identical to the same jobs' share of a full
// Explore except for the MaxViolations budget, which a single process
// spends globally but shards spend independently — callers wanting exact
// equality set MaxViolations above any plausible count.
func ExploreJobs(cfg Config, jobs []Job) *Result {
	return exploreJobs(cfg.withDefaults(), jobs)
}

func exploreJobs(cfg Config, jobs []Job) *Result {
	e := &explorer{cfg: cfg, seen: make(map[string]bool)}
	sys := cfg.System

	//lint:fdlint determinism -- wall-clock is Result.ElapsedMS metadata only; it never feeds schedules, fingerprints or artifacts
	start := time.Now()
	scs := make([]lab.Scenario, len(jobs))
	for i, jb := range jobs {
		jb := jb
		name := sys.Name() + "/" + jb.Label()
		scs[i] = lab.Scenario{
			Family: sys.Name(),
			Name:   name,
			Params: map[string]string{"pattern": patternLabel(jb.Pattern), "oracle": jb.Oracle.Name},
			Seeds:  1,
			Run: func(int64) (lab.Metrics, error) {
				violations, runs := e.exploreConfig(jb.Pattern, jb.Oracle)
				if cfg.OnConfig != nil {
					cfg.OnConfig(name, runs)
				}
				m := lab.Metrics{"runs": float64(runs), "violations": float64(violations)}
				if violations > 0 {
					return m, fmt.Errorf("%d property violations", violations)
				}
				return m, nil
			},
		}
	}
	lab.Run(scs, lab.Options{Workers: cfg.Workers})

	e.mu.Lock()
	defer e.mu.Unlock()
	maxSteps := e.maxSteps.Load()
	violations := append([]*Violation(nil), e.found...)
	sortViolations(violations)
	return &Result{
		System:       sys.Name(),
		Engine:       engineLabel(cfg),
		Configs:      len(jobs),
		Runs:         e.runs.Load(),
		Pruned:       e.pruned.Load(),
		Joined:       e.joined.Load(),
		Truncated:    e.truncated.Load(),
		StateCapped:  e.stateCapped.Load(),
		DepthLimited: cfg.MaxDepth < int(cfg.Budget) && maxSteps > int64(cfg.MaxDepth),
		MaxSteps:     maxSteps,
		SettledRuns:  e.settled.Load(),
		Violations:   violations,
		ElapsedMS:    time.Since(start).Milliseconds(),
	}
}

// violationKey is the (configuration, property) identity violations are
// deduplicated and ordered by — the same key explorer.check uses for its
// seen map.
func violationKey(v *Violation) string {
	return v.Pattern + "|" + v.Oracle + "|" + v.Property
}

// sortViolations orders violations by (pattern, oracle, property) so
// Result.Violations is bit-stable across worker counts and shard merges;
// lab workers complete configurations in a nondeterministic order.
func sortViolations(vs []*Violation) {
	sort.Slice(vs, func(i, j int) bool {
		return violationKey(vs[i]) < violationKey(vs[j])
	})
}

// MergeResults folds per-shard Results of one sweep back into the Result
// the single-process Explore would have produced (up to ElapsedMS, which
// sums shard compute time rather than measuring wall clock): counters and
// Configs summed, exhaustiveness flags OR-folded, MaxSteps maximized, and
// violations deduplicated by (pattern, oracle, property) then sorted. All
// inputs must come from the same System and engine configuration.
func MergeResults(results []*Result) (*Result, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("explore: merge of zero results")
	}
	out := &Result{System: results[0].System, Engine: results[0].Engine}
	seen := make(map[string]bool)
	for _, r := range results {
		if r.System != out.System || r.Engine != out.Engine {
			return nil, fmt.Errorf("explore: merge mixes sweeps: %s/%s vs %s/%s",
				out.System, out.Engine, r.System, r.Engine)
		}
		out.Configs += r.Configs
		out.Runs += r.Runs
		out.Pruned += r.Pruned
		out.Joined += r.Joined
		out.SettledRuns += r.SettledRuns
		out.ElapsedMS += r.ElapsedMS
		out.Truncated = out.Truncated || r.Truncated
		out.StateCapped = out.StateCapped || r.StateCapped
		out.DepthLimited = out.DepthLimited || r.DepthLimited
		if r.MaxSteps > out.MaxSteps {
			out.MaxSteps = r.MaxSteps
		}
		for _, v := range r.Violations {
			if key := violationKey(v); !seen[key] {
				seen[key] = true
				out.Violations = append(out.Violations, v)
			}
		}
	}
	sortViolations(out.Violations)
	return out, nil
}

// stopped reports that the violation budget is spent and exploration should
// wind down.
func (e *explorer) stopped() bool {
	return e.violations.Load() >= int64(e.cfg.MaxViolations)
}

// exploreConfig runs the source-DPOR search for one (pattern, oracle)
// configuration and returns how many distinct violations it contributed and
// how many runs it executed. Configurations explore concurrently on the lab
// pool, so the per-config run count is tracked locally, not read off the
// shared counter.
func (e *explorer) exploreConfig(pattern sim.Pattern, oracle OracleChoice) (violations, runs int64) {
	s := e.sourceConfig(pattern, oracle)
	e.pruned.Add(s.pruned)
	if s.truncated {
		e.truncated.Store(true)
	}
	if s.joins != nil {
		if s.joins.capped {
			e.stateCapped.Store(true)
		}
		s.joins.release()
	}
	return s.violations, s.runs
}

// bumpMax raises the atomic maximum m to v.
func bumpMax(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// execute runs one simulation of sys under the given schedule on fresh
// shared state and returns the completed Run (properties not yet checked).
// log, when non-nil, records every step's shared-object access set; the
// instance's detector histories are then registered with a query seam so
// queries and history flips are part of those sets. An unrecorded run needs
// no seam — flip schedules live in the oracle itself, so outputs are
// identical either way. stop, when non-nil, is polled after every step with
// the step count; a true return ends the run early — the source engine's
// state-hash join probe.
func execute(sys System, pattern sim.Pattern, oracle OracleChoice, sched sim.Schedule, budget int64, log *sim.AccessLog, stop func(sim.Time) bool) *Run {
	inst := sys.Instantiate(pattern, oracle)
	simCfg := sim.Config{Pattern: pattern, Schedule: sched, Budget: budget, AccessLog: log, StopWhen: stop}
	var seam *sim.QuerySeam
	if log != nil && len(inst.Histories) > 0 {
		seam = sim.NewQuerySeam(log)
		for _, h := range inst.Histories {
			seam.Register(h.Name, h.H)
		}
		simCfg.Queries = seam
	}
	machines := inst.Machines
	if len(inst.Tasks) > 0 {
		machines = sim.TaskMachines(inst.Tasks)
	}
	rep, err := sim.RunMachines(simCfg, machines)
	run := &Run{
		System:    sys.Name(),
		Pattern:   pattern,
		Oracle:    oracle,
		Proposals: inst.Proposals,
		K:         inst.K,
		Report:    rep,
		Err:       err,
		seam:      seam,
	}
	if inst.Finish != nil {
		inst.Finish(run)
	}
	return run
}

// check evaluates every property against the run; each violation is
// deduplicated per (pattern, oracle, property), shrunk, and recorded.
func (e *explorer) check(run *Run, pattern sim.Pattern, oracle OracleChoice) int64 {
	var contributed int64
	for _, prop := range e.cfg.System.Properties() {
		err := prop.Check(run)
		if err == nil {
			continue
		}
		key := fmt.Sprintf("%s|%s|%s", patternLabel(pattern), oracle.Name, prop.Name())
		e.mu.Lock()
		dup := e.seen[key]
		if !dup {
			e.seen[key] = true
		}
		e.mu.Unlock()
		if dup {
			continue
		}
		e.violations.Add(1)
		contributed++

		w := shrink(e.cfg, run, prop)
		if w.message == "" {
			w.message = err.Error()
		}
		// Re-execute the shrunk witness with an access log so the classifier
		// sees the minimized trace's structural features (the exploration
		// runs themselves are unrecorded for speed).
		wrun := execute(e.cfg.System, w.pattern, w.oracle,
			sim.NewFixedSchedule(w.schedule), e.cfg.Budget, sim.NewAccessLog(), nil)
		fp := Classify(wrun, prop.Name())
		v := &Violation{
			Property:       prop.Name(),
			Message:        w.message,
			Pattern:        patternLabel(pattern),
			Oracle:         oracle.Name,
			WitnessPattern: patternLabel(w.pattern),
			WitnessOracle:  w.oracle.Name,
			Steps:          run.Report.Steps,
			ShrunkSteps:    len(w.schedule),
			FailurePattern: fp.Name,
			Narrative:      fp.Narrative,
			Artifact:       newArtifact(e.cfg, run, prop.Name(), w, fp),
		}
		e.mu.Lock()
		e.found = append(e.found, v)
		e.mu.Unlock()
	}
	return contributed
}
