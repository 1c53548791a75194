package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"weakestfd/internal/explore"
	"weakestfd/internal/fleet"
	"weakestfd/internal/lab"
	"weakestfd/internal/lab/scenarios"
)

// The four workloads. README.md gives the reason for each; the comments
// here say what one unit of each is.

var workloadNames = []string{"suite-sb1", "fig1-n4-fleet", "zoo-kills", "lab-matrix"}

// workload is one benchmark input set.
type workload interface {
	// setup builds the workload's inputs from the seed; the driver times it.
	setup(seed int64) error
	// unit runs one unit of work, timed by tr's wrappers when tr is non-nil.
	// It lets hp sample the host's speed between its operations.
	unit(tr *tracer, hp *hostProbe) outcome
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "suite-sb1":
		return &suite{}, nil
	case "fig1-n4-fleet":
		return &fleetSweep{}, nil
	case "zoo-kills":
		return &zoo{}, nil
	case "lab-matrix":
		return &labMatrix{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s, or all)", name, strings.Join(workloadNames, ", "))
}

// outcome is what one unit reports to the driver.
type outcome struct {
	// ops are per-operation latencies in ms: one per explored
	// configuration, kill or lab simulation.
	ops       []float64
	attempted int64
	failed    int64
	problems  []string
	// counts renders every exact count of the unit. It must read the same
	// for every unit of a run, traced or not.
	counts string
	// Totals of the explore.Results the unit produced.
	configs, runs, joined, pruned int64
	// workerRSSKB is the largest peak resident set of the unit's fleet
	// workers.
	workerRSSKB int64
	// Layer readings taken by the workload itself.
	fleet  fleetStats
	shrink shrinkStats
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) addResult(r *explore.Result) {
	o.configs += int64(r.Configs)
	o.runs += r.Runs
	o.joined += r.Joined
	o.pruned += r.Pruned
}

type fleetStats struct {
	shards, steals int
	// busyShare is the workers' summed shard compute time over procs × wall.
	busyShare float64
	// firstProgressS is the time from fleet.Run to its first progress line.
	firstProgressS float64
}

type shrinkStats struct {
	// firstViolationMS and shrinkMS are per kill: from the kill's start to
	// the first failing property check, and from there to the kill's end
	// (shrinking, classification and the artifact).
	firstViolationMS, shrinkMS []float64
	replays                    int64
	steps, shrunkSteps         int64
}

// sweepPin is the exact result a clean sweep must reproduce.
type sweepPin struct {
	configs              int
	runs, joined, pruned int64
}

// checkSweep records a problem unless res is a clean, untruncated sweep
// matching pin.
func checkSweep(o *outcome, label string, res *explore.Result, pin sweepPin) bool {
	ok := true
	if n := len(res.Violations); n > 0 {
		o.fail("%s: %d violations, the first: %v", label, n, res.Violations[0])
		ok = false
	}
	if res.Truncated {
		o.fail("%s: truncated by a run cap", label)
		ok = false
	}
	if got := (sweepPin{res.Configs, res.Runs, res.Joined, res.Pruned}); got != pin {
		o.fail("%s: configs/runs/joined/pruned %d/%d/%d/%d, want %d/%d/%d/%d", label,
			got.configs, got.runs, got.joined, got.pruned, pin.configs, pin.runs, pin.joined, pin.pruned)
		ok = false
	}
	return ok
}

func resultCounts(r *explore.Result) string {
	return fmt.Sprintf("configs=%d runs=%d joined=%d pruned=%d max_steps=%d settled=%d violations=%d",
		r.Configs, r.Runs, r.Joined, r.Pruned, r.MaxSteps, r.SettledRuns, len(r.Violations))
}

// exploreSweep explores jobs under cfg on one lab worker. Untraced, it
// times each configuration from OnConfig and samples the host's speed
// between configurations; traced, the tracer closes a span per
// configuration under a sweep span named parent.
func exploreSweep(cfg explore.Config, jobs []explore.Job, tr *tracer, hp *hostProbe, parent string, o *outcome) *explore.Result {
	cfg.Workers = 1
	start := time.Now()
	if tr == nil {
		last := start
		cfg.OnConfig = func(string, int64) {
			o.ops = append(o.ops, ms(time.Since(last)))
			hp.tick(len(o.ops))
			last = time.Now()
		}
	} else {
		cfg.System = tr.system(cfg.System)
		cfg.OnConfig = tr.configDone
		tr.begin(parent)
	}
	res := explore.ExploreJobs(cfg, jobs)
	if tr != nil {
		tr.end(kindSweep, start, time.Now())
	}
	o.addResult(res)
	return res
}

// ---------------------------------------------------------------------------
// suite-sb1: one unit is explore.DefaultSweep at switch budget 1, every
// system's jobs in a seeded order.

type suite struct {
	cfgs []explore.Config
	jobs [][]explore.Job
}

// suitePins are the exact results of a clean suite-sb1 sweep per system:
// 3,319 configurations and 463,666 runs in all.
var suitePins = map[string]sweepPin{
	"fig1/n=2/f=1":           {50, 4602, 1996, 8378},
	"fig1/n=3/f=2":           {1482, 192966, 134388, 396006},
	"fig2/n=3/f=1":           {147, 28812, 19107, 56436},
	"fig2/n=3/f=2":           {1482, 192966, 134388, 396006},
	"extract-omega/n=3/f=2":  {135, 43734, 33577, 63300},
	"composed/n=2/f=1":       {18, 518, 242, 594},
	"timed-composed/n=2/f=1": {5, 68, 0, 89},
}

func (s *suite) setup(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	s.cfgs, s.jobs = nil, nil
	for _, cfg := range explore.DefaultSweep() {
		cfg.SwitchBudget = 1
		jobs := explore.EnumerateJobs(cfg)
		rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
		s.cfgs = append(s.cfgs, cfg)
		s.jobs = append(s.jobs, jobs)
	}
	return nil
}

func (s *suite) unit(tr *tracer, hp *hostProbe) outcome {
	var o outcome
	var counts []string
	for i, cfg := range s.cfgs {
		label := fmt.Sprintf("%s/n=%d/f=%d", cfg.System.Name(), cfg.System.N(), cfg.System.MaxFaults())
		res := exploreSweep(cfg, s.jobs[i], tr, hp, label, &o)
		o.attempted++
		if !checkSweep(&o, label, res, suitePins[label]) {
			o.failed++
		}
		counts = append(counts, label+" "+resultCounts(res))
	}
	o.counts = strings.Join(counts, "; ")
	return o
}

// ---------------------------------------------------------------------------
// fig1-n4-fleet: one unit is fleet.Run of fig1 n=4 over the full E_3 crash
// grid {0,3} with stable histories, on fleetProcs worker processes running
// this binary. The fleet fixes the job order, so the seed is unused.

const fleetProcs = 2

var fleetPin = sweepPin{configs: 910, runs: 161784, joined: 72016, pruned: 409192}

type fleetSweep struct {
	spec fleet.Spec
	cmd  []string
	cfg  explore.Config
	jobs []explore.Job
}

func (f *fleetSweep) setup(int64) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating this binary for the fleet workers: %w", err)
	}
	f.cmd = []string{self, fleetWorkerArg}
	f.spec = fleet.Spec{System: "fig1", N: 4, F: 3, MaxDepth: 11, Budget: 2048, CrashTimes: []int64{0, 3}, Workers: 1}
	if f.cfg, err = f.spec.Config(); err != nil {
		return err
	}
	f.jobs = explore.EnumerateJobs(f.cfg)
	return nil
}

func (f *fleetSweep) unit(_ *tracer, hp *hostProbe) outcome {
	var o outcome
	o.attempted = 1
	hp.bracket(0)
	start := time.Now()
	first := time.Duration(-1)
	stopSampling := sampleChildPeaks(50 * time.Millisecond)
	sum, err := fleet.Run(fleet.Options{
		Spec:      f.spec,
		Procs:     fleetProcs,
		WorkerCmd: f.cmd,
		// Called from fleet.Run's own event loop, on this goroutine. Every
		// job is submitted when the run starts, and a "worker N: <job> (R
		// runs)" line marks one finished: the time since the start is the
		// job's latency. A worker's time between two of its own jobs would
		// be mostly pipe and wake-up delay, since most jobs take well under
		// a millisecond.
		OnProgress: func(line string) {
			now := time.Now()
			if first < 0 {
				first = now.Sub(start)
			}
			if strings.HasPrefix(line, "worker ") {
				o.ops = append(o.ops, ms(now.Sub(start)))
			}
		},
	})
	wall := time.Since(start)
	o.workerRSSKB = stopSampling()
	if werr := waitChildren(30 * time.Second); werr != nil {
		o.fail("fleet: %v", werr)
	}
	hp.bracket(len(o.ops))
	if err != nil {
		o.failed = 1
		o.fail("fleet: %v", err)
		return o
	}
	res := sum.Result
	if !checkSweep(&o, "fig1/n=4 fleet", res, fleetPin) || sum.Jobs != fleetPin.configs {
		o.failed = 1
	}
	o.addResult(res)
	o.counts = resultCounts(res)
	o.fleet = fleetStats{
		shards:         sum.Shards,
		steals:         sum.Steals,
		busyShare:      float64(res.ElapsedMS) / 1e3 / (fleetProcs * wall.Seconds()),
		firstProgressS: first.Seconds(),
	}
	return o
}

// inProcessUnit explores the fleet's jobs in this process on one lab
// worker: the pass the traced run measures the explorer layers on.
func (f *fleetSweep) inProcessUnit(tr *tracer, hp *hostProbe) outcome {
	var o outcome
	res := exploreSweep(f.cfg, f.jobs, tr, hp, "fig1/n=4", &o)
	o.attempted = 1
	if !checkSweep(&o, "fig1/n=4 in-process", res, fleetPin) {
		o.failed = 1
	}
	o.counts = resultCounts(res)
	return o
}

// ---------------------------------------------------------------------------
// zoo-kills: one unit is zooPasses passes over explore.MutantZoo, each
// mutant killed by Mutant.Kill, in a seeded order per pass.

const zooPasses = 40

// killPin is the exact kill a mutant must reproduce: the runs explored up
// to the first violation, the violating run's steps and its shrunk steps.
type killPin struct {
	runs   int64
	steps  int64
	shrunk int
}

// zooPins are the kills of every explore.MutantZoo entry, whatever the pass
// order; shrink.step_ratio is their shrunk over their raw steps.
var zooPins = map[string]killPin{
	"fig1-broken-adopt":       {21, 23, 17},
	"fig1-skip-on-change":     {855, 33, 0},
	"fig1-garbled-decide":     {1, 37, 0},
	"fig1-garbled-echo":       {1, 37, 0},
	"fig2-broken-adopt":       {205, 35, 17},
	"fig2-skip-on-change":     {3, 35, 0},
	"fig2-starved-wait":       {4, 512, 0},
	"extract-full-output":     {1, 768, 0},
	"extract-empty-output":    {1, 768, 0},
	"extract-stale-leader":    {8, 768, 0},
	"composed-broken-adopt":   {139, 61, 39},
	"composed-garbled-echo":   {1, 142, 0},
	"composed-garbled-decide": {1, 142, 0},
}

type zoo struct {
	mutants []explore.Mutant
	orders  [][]int
}

func (z *zoo) setup(seed int64) error {
	z.mutants = explore.MutantZoo()
	rng := rand.New(rand.NewSource(seed))
	z.orders = make([][]int, zooPasses)
	for p := range z.orders {
		z.orders[p] = rng.Perm(len(z.mutants))
	}
	return nil
}

// tracedKill is Mutant.Kill on the wrapped system: the same exploration,
// so it must reach the same verdict with the same counts.
func tracedKill(m explore.Mutant, tr *tracer) (*explore.Violation, *explore.Result, error) {
	sys, err := explore.NewSystem(m.System, m.N, m.F)
	if err != nil {
		return nil, nil, err
	}
	res := explore.Explore(explore.Config{
		System:        tr.system(sys),
		SwitchBudget:  m.SwitchBudget,
		FlipTimes:     m.FlipTimes,
		CrashTimes:    m.CrashTimes,
		MaxDepth:      m.MaxDepth,
		MaxRuns:       m.MaxRuns,
		Budget:        m.Budget,
		Symmetry:      m.Symmetry,
		MaxViolations: 1,
		OnConfig:      tr.configDone,
	})
	for _, v := range res.Violations {
		if v.Property == m.Property {
			return v, res, nil
		}
	}
	return nil, res, nil
}

func (z *zoo) unit(tr *tracer, hp *hostProbe) outcome {
	var o outcome
	kills := make(map[string]string, len(z.mutants))
	for _, order := range z.orders {
		for _, i := range order {
			m := z.mutants[i]
			start := time.Now()
			var v *explore.Violation
			var res *explore.Result
			var err error
			if tr == nil {
				v, res, err = m.Kill()
			} else {
				tr.begin(m.System)
				v, res, err = tracedKill(m, tr)
			}
			end := time.Now()
			o.ops = append(o.ops, ms(end.Sub(start)))
			hp.tick(len(o.ops))
			o.attempted++
			if err != nil {
				o.failed++
				o.fail("%s: %v", m.System, err)
				continue
			}
			o.addResult(res)
			if v == nil || v.FailurePattern != m.Pattern {
				o.failed++
				o.fail("%s: not killed as %s/%s (got %v)", m.System, m.Property, m.Pattern, v)
				continue
			}
			o.shrink.steps += v.Steps
			o.shrink.shrunkSteps += int64(v.ShrunkSteps)
			got := killPin{res.Runs, v.Steps, v.ShrunkSteps}
			if pin, ok := zooPins[m.System]; !ok || got != pin {
				o.failed++
				o.fail("%s: killed after runs/steps/shrunk steps %d/%d/%d, want %d/%d/%d", m.System,
					got.runs, got.steps, got.shrunk, pin.runs, pin.steps, pin.shrunk)
			}
			kills[m.System] = fmt.Sprintf("%s runs=%d steps=%d shrunk=%d", m.System, res.Runs, v.Steps, v.ShrunkSteps)
			if tr != nil {
				tr.end(kindKill, start, end)
				o.shrink.replays += tr.replays
				if !tr.firstViolation.IsZero() {
					o.shrink.firstViolationMS = append(o.shrink.firstViolationMS, ms(tr.firstViolation.Sub(start)))
					o.shrink.shrinkMS = append(o.shrink.shrinkMS, ms(end.Sub(tr.firstViolation)))
				}
			}
		}
	}
	lines := make([]string, 0, len(kills))
	for _, k := range kills {
		lines = append(lines, k)
	}
	sort.Strings(lines)
	o.counts = strings.Join(lines, "; ")
	return o
}

// ---------------------------------------------------------------------------
// lab-matrix: one unit is the full paperbench scenario matrix, labSeeds
// simulations per seeded scenario, on one lab worker. The run's seed is
// mixed into every simulation seed the lab derives.

const (
	labSeeds = 10
	labRuns  = 1552
)

type labMatrix struct {
	scenarios []lab.Scenario
	mix       int64
}

func (l *labMatrix) setup(seed int64) error {
	mats, err := scenarios.Select("", labSeeds)
	if err != nil {
		return err
	}
	if l.scenarios, err = lab.ExpandAll(mats); err != nil {
		return err
	}
	l.mix = int64(splitmix64(uint64(seed)))
	return nil
}

func (l *labMatrix) unit(tr *tracer, hp *hostProbe) outcome {
	var o outcome
	var steps int64
	scs := make([]lab.Scenario, len(l.scenarios))
	for i, sc := range l.scenarios {
		inner, name, family := sc.Run, sc.Name, sc.Family
		sc.Run = func(seed int64) (lab.Metrics, error) {
			start := time.Now()
			m, err := inner(seed ^ l.mix)
			end := time.Now()
			o.ops = append(o.ops, ms(end.Sub(start)))
			hp.tick(len(o.ops))
			n := int64(m["steps"])
			steps += n
			if tr != nil {
				tr.record(kindSim, name, family, start, end, layerTotals{Steps: n})
			}
			return m, err
		}
		scs[i] = sc
	}
	rep := lab.Run(scs, lab.Options{Workers: 1})
	o.attempted, o.failed = int64(rep.Runs), int64(rep.Failed)
	for _, s := range rep.Scenarios {
		if s.Failed > 0 {
			o.fail("%s: %d of %d simulations failed: %s", s.Name, s.Failed, s.Runs, strings.Join(s.Errors, "; "))
		}
	}
	if rep.Runs != labRuns {
		o.fail("lab ran %d simulations, want %d", rep.Runs, labRuns)
	}
	o.counts = fmt.Sprintf("runs=%d steps=%d fingerprint=%s", rep.Runs, steps, rep.Fingerprint())
	return o
}

// splitmix64 is the SplitMix64 finalizer, spreading the run's seed over all
// 64 bits before it is mixed into the lab's simulation seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
