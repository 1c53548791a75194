// Command perfbench is the repository's benchmark. One invocation runs one
// workload — a bounded-exhaustive sweep, a fleet sweep, the mutant zoo or
// the lab scenario matrix — through the packages' public surfaces, checks
// every verdict and exact count, and prints its metrics. README.md records
// why each workload exists and how to read the metrics.
//
//	perfbench --workload suite-sb1 --seed 1 --seconds 20 --trace 0
//	perfbench --workload all --seed 1 --seconds 20
//
// The last line of standard output is one JSON object: the end-to-end
// metrics with --trace 0, the per-layer metrics of a traced run with
// --trace 1. The exit code is 1 when a verdict is wrong or an exact count
// drifted, and 2 on a usage or set-up error.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"weakestfd/internal/fleet"
	"weakestfd/internal/lab/scenarios"
)

// fleetWorkerArg, as the only argument, makes the binary a fleet worker:
// fig1-n4-fleet's coordinator starts its workers from this same build.
const fleetWorkerArg = "fleet-worker"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	// One P per process, fleet workers included: a workload's parallelism
	// is only the fleet's worker processes. It also keeps runs
	// deterministic where the program sizes a pool by GOMAXPROCS —
	// Mutant.Kill explores on such a pool and stops at the first violation,
	// so a wider pool would change which violation comes first. On the
	// two-core reference host it also steadied the fleet's timings: idle Ps
	// no longer spin against the two busy workers.
	runtime.GOMAXPROCS(1)
	if len(os.Args) == 2 && os.Args[1] == fleetWorkerArg {
		if err := fleet.WorkerMain(os.Stdin, os.Stdout); err != nil {
			log.Fatalf("fleet worker: %v", err)
		}
		return
	}
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs derive from")
		seconds = flag.Float64("seconds", 20, "measurement time of one run")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
		spans   = flag.String("spans", filepath.Join(".bench_build", "spans"), "directory a traced run writes its spans to")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *trace))
	}
	w, err := newWorkload(*name)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	d := &driver{w: w, name: *name, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), k: newKernel()}
	var res result
	if *trace == 1 {
		res, err = d.traced(filepath.Join(*spans, fmt.Sprintf("%s-seed%d.jsonl", *name, *seed)))
	} else {
		res, err = d.endToEnd()
	}
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	for _, p := range d.problems {
		log.Printf("FAIL: %s", p)
	}
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Printf("%s %s %.6g %s\n", *name, k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runAll runs every workload in a process of its own, as a single-workload
// invocation would, and prints one table of every metric. It returns the
// worst exit code.
func runAll(seed int64, seconds float64, trace int) int {
	self, err := os.Executable()
	if err != nil {
		log.Print(err)
		return 2
	}
	code := 0
	for _, name := range workloadNames {
		var out bytes.Buffer
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			log.Printf("%s: no result (%v)", name, runErr)
			code = 2
			continue
		}
		for _, k := range sortedKeys(res.Metrics) {
			fmt.Printf("%-14s %-30s %14.6g %s\n", name, k, res.Metrics[k].Value, res.Metrics[k].Unit)
		}
		fmt.Printf("%-14s correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
		var exit *exec.ExitError
		if errors.As(runErr, &exit) {
			code = max(code, exit.ExitCode())
		} else if runErr != nil {
			code = 2
		}
	}
	return code
}

// driver runs one workload and folds its units into one verdict.
type driver struct {
	w      workload
	name   string
	seed   int64
	budget time.Duration

	problems          []string
	attempted, failed int64
	// counts is the first unit's exact counts; every later unit must match.
	counts string
	// k is the host-speed reference kernel the untraced units sample with.
	k *kernel
}

func (d *driver) check(o outcome, what string) {
	d.attempted += o.attempted
	d.failed += o.failed
	d.problems = append(d.problems, o.problems...)
	switch {
	case d.counts == "":
		d.counts = o.counts
	case o.counts != d.counts:
		d.problems = append(d.problems, fmt.Sprintf("%s: exact counts drifted:\n  first: %s\n  now:   %s", what, d.counts, o.counts))
	}
}

func (d *driver) result(m map[string]metric) result {
	return result{
		Correct:   len(d.problems) == 0 && d.failed == 0,
		Attempted: d.attempted,
		Failed:    d.failed,
		Metrics:   m,
	}
}

const (
	setupSamples = 15
	// setupSampleMin is the least time one set-up sample spans: a sample
	// repeats the set-up until then, so a set-up far shorter than the
	// clock's jitter is timed over many repetitions.
	setupSampleMin = 30 * time.Millisecond
)

// setupSeconds sets the workload up setupSamples times over and returns the
// median seconds one set-up takes, scaled to the reference host's speed by
// a slice of the reference kernel before and after each sample. It leaves
// the workload set up.
func (d *driver) setupSeconds() (float64, error) {
	var samples []float64
	for i := 0; i < setupSamples; i++ {
		runtime.GC()
		hp := newHostProbe(d.k)
		hp.slice(0)
		start := time.Now()
		for n := 1; ; n++ {
			if err := d.w.setup(d.seed); err != nil {
				return 0, fmt.Errorf("%s set-up: %w", d.name, err)
			}
			if el := time.Since(start); el >= setupSampleMin {
				hp.slice(0)
				samples = append(samples, el.Seconds()/float64(n)*hp.factor())
				break
			}
		}
	}
	return median(samples), nil
}

// series is one measured run of units.
type series struct {
	walls, cpus []float64 // seconds per unit, scaled to the reference host
	rawWalls    []float64 // seconds per unit as the clock read them
	factors     []float64 // host-speed factor per unit
	rssMB       []float64 // peak resident set per unit, this process or a child
	rt          runtimeCounters
	runs        int64 // explore runs over all units
	outcomes    []outcome
	// layers are the traced units' layer totals, one per unit.
	layers []layerTotals
}

// measure runs units of f until the next would end past budget, at least
// one. With probe, the units sample the host's speed and report scaled
// times; without, raw times. With dropWarmup the first unit warms caches
// and is left out of the timings when at least two more ran.
func (d *driver) measure(f func(*tracer, *hostProbe) outcome, tr *tracer, probe bool, budget time.Duration, dropWarmup bool, what string) (series, error) {
	var s series
	var rts []runtimeCounters
	start := time.Now()
	for {
		if err := resetPeakRSS(); err != nil {
			return s, err
		}
		var hp *hostProbe
		if probe {
			// One slice before the clock starts, so that every unit has one
			// before and one after its work.
			hp = newHostProbe(d.k)
			hp.slice(0)
			hp.spentWall, hp.spentCPU = 0, 0
		}
		spans := 0
		if tr != nil {
			spans = len(tr.spans)
		}
		rt0, cpu0, t0 := readRuntime(), cpuTime(), time.Now()
		o := f(tr, hp)
		wall := time.Since(t0)
		cpu1, rt1 := cpuTime(), readRuntime()
		peak, err := peakRSSKB()
		if err != nil {
			return s, err
		}
		var spentWall, spentCPU time.Duration
		if hp != nil {
			spentWall, spentCPU = hp.spentWall, hp.spentCPU
			hp.slice(len(o.ops))
		}
		k := hp.factor()
		hp.scaleOps(o.ops)
		d.check(o, what)
		if tr != nil {
			s.layers = append(s.layers, unitLayers(tr.spans[spans:]))
		}
		s.walls = append(s.walls, (wall-spentWall).Seconds()*k)
		s.cpus = append(s.cpus, (cpu1-cpu0-spentCPU).Seconds()*k)
		s.rawWalls = append(s.rawWalls, wall.Seconds())
		s.factors = append(s.factors, k)
		s.rssMB = append(s.rssMB, float64(max(peak, o.workerRSSKB))/1024)
		rts = append(rts, rt1.sub(rt0))
		s.outcomes = append(s.outcomes, o)
		if time.Since(start)+wall > budget {
			break
		}
	}
	if dropWarmup && len(s.walls) >= 3 {
		s.walls, s.cpus, s.rawWalls, s.factors = s.walls[1:], s.cpus[1:], s.rawWalls[1:], s.factors[1:]
		s.rssMB, rts, s.outcomes = s.rssMB[1:], rts[1:], s.outcomes[1:]
	}
	for i, o := range s.outcomes {
		s.runs += o.runs
		s.rt.allocs += rts[i].allocs
		s.rt.bytes += rts[i].bytes
		s.rt.gcCPU += rts[i].gcCPU
		s.rt.allCPU += rts[i].allCPU
	}
	return s, nil
}

// opQuantile is the median over units of each unit's q-quantile of
// operation latency, in ms: like the unit times, one unit whose work met a
// slow patch of the host moves it less than it would a quantile of the
// pooled latencies.
func (s series) opQuantile(q float64) float64 {
	var xs []float64
	for _, o := range s.outcomes {
		xs = append(xs, quantile(o.ops, q))
	}
	return median(xs)
}

// endToEnd measures the end-to-end metrics, untraced.
func (d *driver) endToEnd() (result, error) {
	setup, err := d.setupSeconds()
	if err != nil {
		return result{}, err
	}
	s, err := d.measure(d.w.unit, nil, true, d.budget, true, d.name)
	if err != nil {
		return result{}, err
	}
	log.Printf("%s: %d units, raw wall %.4g s, host-speed factor %.3f (medians over units)",
		d.name, len(s.walls), median(s.rawWalls), median(s.factors))
	return d.result(map[string]metric{
		"wall_s":      {median(s.walls), "s"},
		"cpu_s":       {median(s.cpus), "s"},
		"peak_rss_mb": {median(s.rssMB), "MB"},
		"setup_s":     {setup, "s"},
		"op_ms_p50":   {s.opQuantile(0.5), "ms"},
		"op_ms_p90":   {s.opQuantile(0.9), "ms"},
	}), nil
}

// traced measures the per-layer metrics: half the budget untraced, half
// traced, then the step ladder. A workload that runs in other processes
// spends a share on its own units first, then measures the layers on its
// in-process pass.
func (d *driver) traced(spansPath string) (result, error) {
	if err := d.w.setup(d.seed); err != nil {
		return result{}, fmt.Errorf("%s set-up: %w", d.name, err)
	}
	half := d.budget / 2
	subject := d.w.unit
	var own series
	if f, ok := d.w.(*fleetSweep); ok {
		var err error
		if own, err = d.measure(d.w.unit, nil, false, half, false, d.name); err != nil {
			return result{}, err
		}
		subject = f.inProcessUnit
	}
	base, err := d.measure(subject, nil, false, half, true, d.name+" untraced")
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	traced, err := d.measure(subject, tr, false, half, false, d.name+" traced")
	if err != nil {
		return result{}, err
	}
	d.checkLayers(traced)
	ladder, err := runLadder(d.seed)
	if err != nil {
		d.problems = append(d.problems, err.Error())
	}
	if err := tr.writeSpans(spansPath); err != nil {
		return result{}, err
	}
	return d.result(d.layerMetrics(base, traced, own, tr, ladder)), nil
}

// layerPin is the exact layer work of one traced unit.
type layerPin struct{ instantiates, steps, checks int64 }

// layerPins are the layer counts of one traced unit of each workload that
// explores, whatever the seed. The lab's steps depend on the seed; its
// units must agree with each other through outcome.counts.
var layerPins = map[string]layerPin{
	"suite-sb1":     {463666, 15480756, 399246},
	"fig1-n4-fleet": {161784, 2589403, 269304},
	"zoo-kills":     {69040, 5124440, 157160},
}

// checkLayers records a problem when a traced unit's layer counts differ
// from the workload's pin, or when a clean sweep instantiated other than
// once per run.
func (d *driver) checkLayers(traced series) {
	pin, pinned := layerPins[d.name]
	for i, l := range traced.layers {
		got := layerPin{l.Instantiates, l.Steps, l.Checks}
		if pinned && got != pin {
			d.problems = append(d.problems, fmt.Sprintf("%s traced unit %d: instantiate calls/steps/checks %d/%d/%d, want %d/%d/%d",
				d.name, i, got.instantiates, got.steps, got.checks, pin.instantiates, pin.steps, pin.checks))
		}
		if _, zoo := d.w.(*zoo); pinned && !zoo && l.Instantiates != traced.outcomes[i].runs {
			d.problems = append(d.problems, fmt.Sprintf("%s traced unit %d: %d instantiate calls for %d runs",
				d.name, i, l.Instantiates, traced.outcomes[i].runs))
		}
	}
}

// unitLayers sums the layer totals of a unit's configuration spans.
func unitLayers(spans []span) layerTotals {
	var t layerTotals
	for _, s := range spans {
		if s.Kind == kindConfig {
			t.add(s.Layers)
		}
	}
	return t
}

// layerMetrics turns the traced spans, the untraced baseline and the
// workload's own readings into the per-layer metrics, per unit of work.
// Layers a workload never reaches read 0.
func (d *driver) layerMetrics(base, traced, own series, tr *tracer, ladder [rungs]float64) map[string]metric {
	m := make(map[string]metric)
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	units := float64(len(traced.outcomes))

	var tot layerTotals
	var cfgNS, simNS, simSteps, sims int64
	var cfgMS []float64
	family := make(map[string]int64)
	for _, s := range tr.spans {
		switch s.Kind {
		case kindConfig:
			tot.add(s.Layers)
			cfgNS += s.ns()
			cfgMS = append(cfgMS, float64(s.ns())/1e6)
			if self := s.ns() - s.Layers.InstantiateNS - s.Layers.RunNS - s.Layers.CheckNS; self < 0 {
				d.problems = append(d.problems, fmt.Sprintf("config %s: layer spans exceed the config span by %dns", s.Name, -self))
			}
			if s.Layers.Steps != s.Layers.ReportSteps {
				d.problems = append(d.problems, fmt.Sprintf("config %s: %d machine steps counted, runs report %d", s.Name, s.Layers.Steps, s.Layers.ReportSteps))
			}
		case kindSim:
			sims++
			simNS += s.ns()
			simSteps += s.Layers.Steps
			family[s.Parent] += s.ns()
		}
	}
	perUnit := func(x int64) float64 { return float64(x) / units }
	sec := func(ns int64) float64 { return float64(ns) / 1e9 / units }

	put("instantiate.calls", perUnit(tot.Instantiates), "count")
	put("instantiate.s", sec(tot.InstantiateNS), "s")
	put("instantiate.us_per_call", ratio(float64(tot.InstantiateNS)/1e3, float64(tot.Instantiates)), "us")
	put("sim.steps", perUnit(tot.Steps), "count")
	put("sim.run_s", sec(tot.RunNS), "s")
	put("sim.ns_per_step", ratio(float64(tot.RunNS), float64(tot.Steps)), "ns")
	for r, name := range rungNames {
		put("sim.step_ns."+name, ladder[r], "ns")
	}

	first := traced.outcomes[0]
	put("explore.configs", float64(first.configs), "count")
	put("explore.runs", float64(first.runs), "count")
	put("explore.joined", float64(first.joined), "count")
	put("explore.pruned", float64(first.pruned), "count")
	put("explore.join_ratio", ratio(float64(first.joined), float64(first.runs)), "ratio")
	put("explore.prune_ratio", ratio(float64(first.pruned), float64(first.runs+first.pruned)), "ratio")
	put("explore.search_s", sec(cfgNS-tot.InstantiateNS-tot.RunNS-tot.CheckNS), "s")
	put("explore.checks", perUnit(tot.Checks), "count")
	put("explore.check_s", sec(tot.CheckNS), "s")
	put("explore.config_ms_p50", quantile(cfgMS, 0.5), "ms")
	put("explore.config_ms_p99", quantile(cfgMS, 0.99), "ms")
	put("explore.config_top1pct_share", topShare(cfgMS, 0.01), "ratio")
	put("explore.allocs_per_run", ratio(base.rt.allocs, float64(base.runs)), "allocs/run")
	put("explore.bytes_per_run", ratio(base.rt.bytes, float64(base.runs)), "B/run")
	put("gc.cpu_share", ratio(base.rt.gcCPU, base.rt.allCPU), "ratio")

	var sh shrinkStats
	for _, o := range traced.outcomes {
		sh.firstViolationMS = append(sh.firstViolationMS, o.shrink.firstViolationMS...)
		sh.shrinkMS = append(sh.shrinkMS, o.shrink.shrinkMS...)
		sh.replays += o.shrink.replays
	}
	put("shrink.first_violation_ms", median(sh.firstViolationMS), "ms")
	put("shrink.ms", median(sh.shrinkMS), "ms")
	put("shrink.replays", perUnit(sh.replays), "count")
	put("shrink.step_ratio", ratio(float64(first.shrink.shrunkSteps), float64(first.shrink.steps)), "ratio")

	var shards, steals, busy, firstProgress []float64
	for _, o := range own.outcomes {
		shards = append(shards, float64(o.fleet.shards))
		steals = append(steals, float64(o.fleet.steals))
		busy = append(busy, o.fleet.busyShare)
		firstProgress = append(firstProgress, o.fleet.firstProgressS)
	}
	put("fleet.shards", median(shards), "count")
	put("fleet.steals", median(steals), "count")
	put("fleet.busy_share", median(busy), "ratio")
	put("fleet.first_progress_s", median(firstProgress), "s")

	put("lab.runs", perUnit(sims), "count")
	put("lab.steps", perUnit(simSteps), "count")
	put("lab.ns_per_step", ratio(float64(simNS), float64(simSteps)), "ns")
	for _, f := range scenarios.FamilyNames() {
		put("lab.family_s."+f, sec(family[f]), "s")
	}

	put("trace.overhead", median(traced.walls)/median(base.walls)-1, "ratio")
	return m
}
