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

// Engine selects the exploration algorithm.
type Engine uint8

const (
	// EngineSource — the default — is source-DPOR with wakeup sequences
	// (source.go, wakeup.go): full-depth exploration of one representative
	// per commutativity class, with race reversals gated on source sets and
	// forced by wakeup sequences, plus the state-hash join layer (hash.go)
	// that shares post-horizon tails between runs reaching the same state.
	EngineSource Engine = iota
	// EngineDPOR is the classic Flanagan–Godefroid DPOR of PR 4 (dpor.go):
	// bare backtrack points plus sleep sets, kept as the reduction-quality
	// baseline the source engine is differentially tested and benchmarked
	// against.
	EngineDPOR
	// EngineEnum is the context-switch-bounded block enumerator of PR 3,
	// kept as the differential-testing reference: the reducing engines and
	// the enumerator must find the identical violation set on the standard
	// suites.
	EngineEnum
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EngineSource:
		return "source"
	case EngineDPOR:
		return "classic"
	case EngineEnum:
		return "legacy"
	default:
		return fmt.Sprintf("engine(%d)", uint8(e))
	}
}

// engineLabel names the engine as configured: the source engine with the
// join layer on reports "source+hash".
func engineLabel(c Config) string {
	if c.Engine == EngineSource && !c.NoHash {
		return "source+hash"
	}
	return c.Engine.String()
}

// Config bounds one exploration. The zero value of every field has a usable
// default; only System is required.
type Config struct {
	// System is the protocol under exploration.
	System System
	// Engine selects the exploration algorithm; the zero value is
	// EngineSource.
	Engine Engine
	// NoHash disables the source engine's state-hash join layer, making it
	// pure source-DPOR — the differential-testing lens for the join
	// soundness argument. EngineSource only.
	NoHash bool
	// MaxStates caps the join cache's entries per configuration; once full,
	// new states are no longer admitted (Result.StateCapped) but cached ones
	// keep joining. Default 16384. EngineSource only.
	MaxStates int
	// MaxBlocks bounds the number of adversarial blocks per schedule (the
	// context-switch bound); the fair round-robin tail after the last block
	// is free. Default 2. EngineEnum only.
	MaxBlocks int
	// MaxBlock bounds the length of one adversarial block. Default 48.
	// EngineEnum only.
	MaxBlock int
	// Budget caps every run's total step count. Default 4096.
	Budget int64
	// MaxDepth bounds the step depth at which the DPOR engines insert
	// backtrack points; beyond it runs continue under the fair tail without
	// branching. 0 means the step budget — genuinely full-depth for
	// terminating protocols. Non-terminating systems (the extraction, the
	// compositions' reduction tasks) need a finite bound to keep the
	// branching frontier tractable. EngineSource and EngineDPOR; under
	// EngineSource it is also the state-hash join horizon (hash.go).
	MaxDepth int
	// MaxRuns caps the number of runs one configuration's DPOR search may
	// execute (0 = unlimited); hitting the cap marks the Result Truncated,
	// which voids the exhaustiveness claim for that sweep. EngineSource and
	// EngineDPOR.
	MaxRuns int64
	// MaxFaults overrides the system's environment E_f (0 keeps it).
	MaxFaults int
	// CrashTimes is the crash-time grid per faulty process. Default {0, 3}:
	// crashed-from-the-start and a mid-protocol crash.
	CrashTimes []sim.Time
	// SwitchBudget bounds the pre-stabilization output switches enumerated
	// per detector history. 0 (the default) explores only stable-from-0
	// histories — exactly the PR-4 schedule space; b >= 1 additionally
	// enumerates, per stable value, every schedule of at most b flips with
	// phase outputs from the detector's range and flip times from FlipTimes.
	// Honored by both engines: the block enumerator executes explicit
	// schedules and makes no independence assumptions, and DPOR stays sound
	// because the query seam records queries and flips as conflicting
	// accesses of the history object.
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
	// ShrinkBudget caps the number of candidate replays the shrinker spends
	// per violation. Default 2000.
	ShrinkBudget int
	// OnConfig, when non-nil, receives a progress line per finished
	// (pattern × oracle) configuration. Configurations explore concurrently
	// on the lab worker pool, so OnConfig is invoked from multiple goroutines
	// at once with no ordering or mutual-exclusion guarantee: the callback
	// must be safe for concurrent use and must serialize any output it
	// produces itself (see `fdlab explore -progress` for the canonical
	// mutex-guarded printer).
	OnConfig func(name string, runs int64)
}

func (c Config) withDefaults() Config {
	if c.MaxBlocks == 0 {
		c.MaxBlocks = 2
	}
	if c.MaxBlock == 0 {
		c.MaxBlock = 48
	}
	if c.Budget == 0 {
		c.Budget = 4096
	}
	if c.MaxDepth <= 0 || int64(c.MaxDepth) > c.Budget {
		c.MaxDepth = int(c.Budget)
	}
	if c.MaxFaults <= 0 || c.MaxFaults > c.System.MaxFaults() {
		c.MaxFaults = c.System.MaxFaults()
	}
	if len(c.CrashTimes) == 0 {
		c.CrashTimes = []sim.Time{0, 3}
	}
	// FlipTimes is a set of candidate times; flipVariants builds strictly
	// increasing phase tuples by walking it in order, and fd.NewUnstable
	// panics on an unordered tuple — normalize rather than crash mid-sweep.
	// Normalization runs before the default so that a grid of entirely
	// unobservable times (all < 2) falls back to the default grid instead
	// of silently degenerating a SwitchBudget>0 sweep to stable-from-0.
	c.FlipTimes = sortedTimes(c.FlipTimes)
	if c.SwitchBudget > 0 && len(c.FlipTimes) == 0 {
		c.FlipTimes = []sim.Time{2, 14}
	}
	if c.MaxViolations <= 0 {
		c.MaxViolations = 4 // a non-positive cap would stop the sweep at birth
	}
	if c.MaxStates <= 0 {
		c.MaxStates = 1 << 14
	}
	if c.ShrinkBudget == 0 {
		c.ShrinkBudget = 2000
	}
	return c
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
	// Engine names the exploration algorithm that produced the result.
	Engine string `json:"engine"`
	// Configs is the number of (pattern × oracle) configurations.
	Configs int `json:"configs"`
	// Runs is the number of schedules executed (shrinking replays excluded).
	Runs int64 `json:"runs"`
	// Pruned counts the schedules a reducing engine proved redundant without
	// executing them (sleep-set and source-set skips); always 0 for
	// EngineEnum, whose stutter pruning cuts length scans rather than whole
	// schedules.
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

// block is one adversarial schedule segment: up to n consecutive steps of
// pid (fewer if pid returns or crashes first).
type block struct {
	pid sim.PID
	n   int
}

// blockSchedule plays a block sequence then a fair round-robin tail,
// recording the granted sequence and per-block grant counts.
type blockSchedule struct {
	blocks  []block
	bi      int
	left    int
	tail    sim.Schedule
	granted []sim.PID
	counts  []int
}

func newBlockSchedule(blocks []block) *blockSchedule {
	s := &blockSchedule{blocks: blocks, tail: sim.RoundRobin(), counts: make([]int, len(blocks))}
	if len(blocks) > 0 {
		s.left = blocks[0].n
	}
	return s
}

// Next implements sim.Schedule.
func (s *blockSchedule) Next(t sim.Time, enabled sim.Set) sim.PID {
	for s.bi < len(s.blocks) {
		b := s.blocks[s.bi]
		if s.left > 0 && enabled.Has(b.pid) {
			s.left--
			s.counts[s.bi]++
			s.granted = append(s.granted, b.pid)
			return b.pid
		}
		s.bi++
		if s.bi < len(s.blocks) {
			s.left = s.blocks[s.bi].n
		}
	}
	p := s.tail.Next(t, enabled)
	s.granted = append(s.granted, p)
	return p
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
	var jobs []Job
	for _, p := range patternsFor(sys.N(), cfg.MaxFaults, cfg.CrashTimes, cfg.Symmetry) {
		for _, o := range sys.Oracles(p, plan) {
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

// ParseEngine maps a CLI engine name to its Engine, accepting the names
// Engine.String prints plus common aliases. The empty string selects the
// default engine.
func ParseEngine(name string) (Engine, error) {
	switch name {
	case "", "source":
		return EngineSource, nil
	case "classic", "dpor":
		return EngineDPOR, nil
	case "legacy", "enum":
		return EngineEnum, nil
	default:
		return 0, fmt.Errorf("unknown engine %q (want source, classic or legacy)", name)
	}
}

// stopped reports that the violation budget is spent and exploration should
// wind down.
func (e *explorer) stopped() bool {
	return e.violations.Load() >= int64(e.cfg.MaxViolations)
}

// exploreConfig runs the configured engine's DFS for one (pattern, oracle)
// configuration and returns how many distinct violations it contributed and
// how many runs it executed. Configurations explore concurrently on the lab
// pool, so the per-config run count is tracked locally, not read off the
// shared counter.
func (e *explorer) exploreConfig(pattern sim.Pattern, oracle OracleChoice) (violations, runs int64) {
	switch e.cfg.Engine {
	case EngineSource:
		s := e.sourceConfig(pattern, oracle)
		e.pruned.Add(s.pruned)
		if s.truncated {
			e.truncated.Store(true)
		}
		if s.joins != nil && s.joins.capped {
			e.stateCapped.Store(true)
		}
		return s.violations, s.runs
	case EngineDPOR:
		d := e.dporConfig(pattern, oracle)
		e.pruned.Add(d.pruned)
		if d.truncated {
			e.truncated.Store(true)
		}
		return d.violations, d.runs
	case EngineEnum:
		c := &configRun{e: e, pattern: pattern, oracle: oracle}
		// Root: the pure fair schedule, no adversarial blocks.
		root, _ := c.run(nil)
		c.violations += e.check(root, pattern, oracle)
		c.dfs(nil)
		return c.violations, c.runs
	default:
		panic(fmt.Sprintf("explore: unknown engine %v", e.cfg.Engine))
	}
}

// configRun is the per-configuration DFS state.
type configRun struct {
	e          *explorer
	pattern    sim.Pattern
	oracle     OracleChoice
	runs       int64
	violations int64
}

// dfs extends the block prefix one block at a time. The length scan for a
// given owner stops as soon as a run cut the block short (every longer
// length is stutter-equivalent). Consecutive blocks share an owner only
// when the previous block ran its full MaxBlock length: a partial-then-same
// chain would duplicate the single longer block already scanned, while
// full-block chaining is the canonical decomposition of uninterrupted solo
// spans beyond MaxBlock — so one process can run up to MaxBlocks·MaxBlock
// consecutive steps, each span costing ⌈span/MaxBlock⌉ of the block budget.
func (c *configRun) dfs(blocks []block) {
	e := c.e
	if len(blocks) >= e.cfg.MaxBlocks || e.stopped() {
		return
	}
	n := e.cfg.System.N()
	last := sim.PID(-1)
	lastFull := false
	if len(blocks) > 0 {
		last = blocks[len(blocks)-1].pid
		lastFull = blocks[len(blocks)-1].n == e.cfg.MaxBlock
	}
	for p := 0; p < n; p++ {
		if sim.PID(p) == last && !lastFull {
			continue
		}
		for length := 1; length <= e.cfg.MaxBlock; length++ {
			if e.stopped() {
				return
			}
			child := append(append([]block(nil), blocks...), block{pid: sim.PID(p), n: length})
			run, counts := c.run(child)
			if counts[len(child)-1] < length {
				// The block ended early (pid returned/crashed or the run
				// finished): this run equals the previous length's run, and
				// so would every longer one. Stutter-prune the scan.
				break
			}
			c.violations += e.check(run, c.pattern, c.oracle)
			c.dfs(child)
		}
	}
}

// run executes one schedule (blocks + fair tail) on fresh state.
func (c *configRun) run(blocks []block) (*Run, []int) {
	e := c.e
	sched := newBlockSchedule(blocks)
	run := execute(e.cfg.System, c.pattern, c.oracle, sched, e.cfg.Budget, nil, nil)
	run.Schedule = sched.granted
	c.runs++
	e.runs.Add(1)
	if run.OutputsSettled {
		e.settled.Add(1)
	}
	bumpMax(&e.maxSteps, run.Report.Steps)
	return run, sched.counts
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
// identical either way. stop, when non-nil, is polled after every step (and
// after the instance's observer) with the step count; a true return ends the
// run early — the source engine's state-hash join probe.
func execute(sys System, pattern sim.Pattern, oracle OracleChoice, sched sim.Schedule, budget int64, log *sim.AccessLog, stop func(sim.Time) bool) *Run {
	inst := sys.Instantiate(pattern, oracle)
	simCfg := sim.Config{Pattern: pattern, Schedule: sched, Budget: budget, AccessLog: log}
	var seam *sim.QuerySeam
	if log != nil && len(inst.Histories) > 0 {
		seam = sim.NewQuerySeam(log)
		for _, h := range inst.Histories {
			seam.Register(h.Name, h.H)
		}
		simCfg.Queries = seam
	}
	if inst.Observe != nil || stop != nil {
		observe := inst.Observe
		simCfg.StopWhen = func(t sim.Time) bool {
			if observe != nil {
				observe(t)
			}
			return stop != nil && stop(t)
		}
	}
	var rep *sim.Report
	var err error
	if len(inst.Tasks) > 0 {
		rep, err = sim.RunTaskMachines(simCfg, inst.Tasks)
	} else {
		rep, err = sim.RunMachines(simCfg, inst.Machines)
	}
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
