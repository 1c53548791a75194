package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"testing"

	"weakestfd"
	"weakestfd/internal/explore"
	"weakestfd/internal/fleet"
	"weakestfd/internal/lab"
	"weakestfd/internal/lab/scenarios"
	"weakestfd/internal/sim"
)

// Benchmark mode: `paperbench -bench-json out.json` measures the hot paths
// with testing.Benchmark and writes a machine-readable report. CI compares
// the output against the committed bench/baseline.json via cmd/benchgate and
// fails on regression; the report doubles as the repository's BENCH_*.json
// performance trajectory.

// BenchReport is the top-level JSON document.
type BenchReport struct {
	// Schema versions the document layout.
	Schema int `json:"schema"`
	// GoVersion and GOMAXPROCS describe the measuring environment; the gate
	// uses GOMAXPROCS as a comparable-hardware heuristic (wall-clock checks
	// demote to warnings when it differs from the baseline's).
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// MatrixSeeds is the seeds-per-scenario of the measured quick matrix;
	// reports with different workloads are not comparable and the gate
	// rejects them.
	MatrixSeeds int `json:"matrix_seeds"`
	// Benchmarks are the individual measurements.
	Benchmarks []BenchResult `json:"benchmarks"`
	// ExploreReduction is the executed-run ratio of the classic DPOR engine
	// over the source engine on the pinned fig1 n=3 exploration — the
	// headline number of the source-set reduction. Run counts are
	// deterministic, so the ratio is hardware-independent and the gate
	// enforces a floor on it.
	ExploreReduction float64 `json:"explore_reduction"`
	// FlipReduction is the same classic-over-source executed-run ratio on
	// the pinned sweep at switch-budget 1 — the headline number of the
	// flip-anchored wakeup sequences. The classic run count comes from one
	// untimed reference sweep (only the source side is wall-clock
	// benchmarked); the ratio is deterministic and the gate enforces a floor
	// on it.
	FlipReduction float64 `json:"flip_reduction"`
	// FleetVsSingleProcess is the ns/op ratio of the single-process source
	// sweep over the same sweep run through `fdlab fleet`'s coordinator with
	// two worker subprocesses: > 1 means the fleet outran one process. On a
	// single-core runner expect slightly below 1 (subprocess spawn and frame
	// codec overhead with no cores to win back); the gate checks the fleet
	// entry's run count exactly — sharding must be result-neutral — and its
	// wall clock within the usual tolerance, not this ratio.
	FleetVsSingleProcess float64 `json:"fleet_vs_single_process"`
	// FingerprintMachine is the lab fingerprint of the quick matrix.
	FingerprintMachine string `json:"fingerprint_machine"`
}

// BenchResult is one measurement.
type BenchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// StepsPerOp is the number of simulated atomic steps one op performs
	// (deterministic; the gate checks it exactly).
	StepsPerOp float64 `json:"steps_per_op,omitempty"`
	// StepsPerSec = StepsPerOp / (NsPerOp / 1e9): simulated steps per
	// wall-clock second, the engine's throughput.
	StepsPerSec float64 `json:"steps_per_sec,omitempty"`
}

// benchBest runs the benchmark repeatedly and keeps the fastest result: the
// minimum is the standard low-noise wall-clock estimator, and it is what
// keeps the ±20% CI gate from flaking on shared runners.
func benchBest(reps int, f func(b *testing.B)) testing.BenchmarkResult {
	var best testing.BenchmarkResult
	bestNs := 0.0
	for i := 0; i < reps; i++ {
		r := testing.Benchmark(f)
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		if i == 0 || ns < bestNs {
			best, bestNs = r, ns
		}
	}
	return best
}

func newBenchResult(name string, r testing.BenchmarkResult, stepsPerOp float64) BenchResult {
	out := BenchResult{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		StepsPerOp:  stepsPerOp,
	}
	if stepsPerOp > 0 && out.NsPerOp > 0 {
		out.StepsPerSec = stepsPerOp / (out.NsPerOp / 1e9)
	}
	return out
}

// matrixSteps sums the simulated steps of one matrix invocation from the
// aggregated "steps" metric (mean × samples per scenario); deterministic in
// the scenario list.
func matrixSteps(rep *lab.Report) float64 {
	total := 0.0
	for _, sc := range rep.Scenarios {
		m := sc.Metric("steps")
		total += m.Mean * float64(m.N)
	}
	return total
}

// runBenchJSON measures the benchmark suite and writes the JSON report.
func runBenchJSON(path string, seeds int) error {
	scs, err := lab.ExpandAll(scenarios.Quick(seeds))
	if err != nil {
		return err
	}

	// Deterministic preamble: fingerprint and step total.
	mRep := lab.Run(scs, lab.Options{Workers: 1})
	if mRep.Failed != 0 {
		return fmt.Errorf("bench matrix: %d runs failed", mRep.Failed)
	}
	report := BenchReport{
		Schema:             1,
		GoVersion:          runtime.Version(),
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		MatrixSeeds:        seeds,
		FingerprintMachine: mRep.Fingerprint(),
	}

	// Timed section. Each benchmark closure performs one full workload per
	// iteration.
	machine := benchBest(3, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep := lab.Run(scs, lab.Options{Workers: 1})
			if rep.Failed != 0 {
				b.Fatalf("%d runs failed", rep.Failed)
			}
		}
	})
	report.Benchmarks = append(report.Benchmarks, newBenchResult("lab-matrix/machine", machine, matrixSteps(mRep)))

	for _, fam := range familyBenchmarks() {
		fam := fam
		// Fixed seed: every op simulates the identical run, so steps/op is
		// deterministic and the gate can compare it exactly.
		steps, err := fam.run(0)
		if err != nil {
			return fmt.Errorf("family/%s: %w", fam.name, err)
		}
		res := benchBest(3, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fam.run(0); err != nil {
					b.Fatal(err)
				}
			}
		})
		report.Benchmarks = append(report.Benchmarks,
			newBenchResult("family/"+fam.name, res, float64(steps)))
	}

	// Explorer throughput: one pinned fig1 n=3 sweep per engine. Runs/op is
	// the engine's executed-schedule count on the identical configuration
	// grid — deterministic, so the gate compares it exactly — and the
	// classic/source ratio is the reduction headline.
	var classicRuns, sourceRuns, sourceNs, budget1SourceRuns float64
	for _, eb := range exploreBenchmarks() {
		eb := eb
		runs, violations := eb.run()
		if violations != 0 {
			return fmt.Errorf("explore/%s: %d violations on the real protocol", eb.name, violations)
		}
		res := benchBest(2, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if r, _ := eb.run(); r != runs {
					b.Fatalf("run count drifted: %v -> %v", runs, r)
				}
			}
		})
		report.Benchmarks = append(report.Benchmarks,
			newBenchResult("explore/"+eb.name, res, float64(runs)))
		switch eb.name {
		case "fig1-n3/classic":
			classicRuns = float64(runs)
		case "fig1-n3/source":
			sourceRuns = float64(runs)
			sourceNs = float64(res.T.Nanoseconds()) / float64(res.N)
		case "fig1-n3/budget1-source":
			budget1SourceRuns = float64(runs)
		}
	}
	if sourceRuns > 0 {
		report.ExploreReduction = classicRuns / sourceRuns
	}
	if budget1SourceRuns > 0 {
		// One untimed classic reference pass for the flip-reduction ratio:
		// wall-clocking classic at budget 1 (~1.3M runs per op) would dominate
		// the whole suite, and only its deterministic run count matters.
		classicB1Runs, violations := exploreSweep(explore.EngineDPOR, 1)()
		if violations != 0 {
			return fmt.Errorf("explore/fig1-n3/budget1-classic reference: %d violations on the real protocol", violations)
		}
		report.FlipReduction = float64(classicB1Runs) / budget1SourceRuns
	}

	// Fleet throughput: the identical pinned source sweep sharded across two
	// worker processes (this binary re-exec'd in its hidden -fleet-worker
	// mode). The run count must equal the single-process sweep's — sharding
	// the configuration space is result-neutral — so the gate compares
	// steps/op exactly across the two entries.
	fleetRes, fleetRuns, err := benchFleet()
	if err != nil {
		return err
	}
	if float64(fleetRuns) != sourceRuns {
		return fmt.Errorf("explore/fig1-n3/fleet-2proc executed %d runs, want the single-process count %v", fleetRuns, sourceRuns)
	}
	report.Benchmarks = append(report.Benchmarks,
		newBenchResult("explore/fig1-n3/fleet-2proc", fleetRes, float64(fleetRuns)))
	if fleetNs := float64(fleetRes.T.Nanoseconds()) / float64(fleetRes.N); fleetNs > 0 {
		report.FleetVsSingleProcess = sourceNs / fleetNs
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(report)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("bench report written to %s (explore reduction %.2fx, flip reduction %.2fx, fingerprint %s)\n",
		path, report.ExploreReduction, report.FlipReduction, report.FingerprintMachine[:16])
	return nil
}

// exploreBench is one explorer-throughput benchmark: a pinned sweep run once
// per op. The returned runs count is deterministic in the configuration.
type exploreBench struct {
	name string
	run  func() (runs int64, violations int)
}

func exploreBenchmarks() []exploreBench {
	// The pinned sweep: fig1 n=3 on the single crash time 0, depth 12 — the
	// standard-suite shape trimmed to one crash grid point so the classic
	// engine's pass stays bench-affordable.
	return []exploreBench{
		{"fig1-n3/classic", exploreSweep(explore.EngineDPOR, 0)},
		{"fig1-n3/source", exploreSweep(explore.EngineSource, 0)},
		// The same sweep under one pre-stabilization detector switch: the
		// flip-anchored wakeup-sequence regime. Classic's budget-1 pass is too
		// slow to wall-clock here; runBenchJSON runs it once, untimed, for the
		// flip_reduction ratio.
		{"fig1-n3/budget1-source", exploreSweep(explore.EngineSource, 1)},
	}
}

// exploreSweep runs the pinned sweep once at the given switch budget.
func exploreSweep(engine explore.Engine, switchBudget int) func() (int64, int) {
	return func() (int64, int) {
		res := explore.Explore(explore.Config{
			System:       explore.Fig1System(3),
			Engine:       engine,
			SwitchBudget: switchBudget,
			MaxDepth:     12,
			Budget:       2048,
			CrashTimes:   []sim.Time{0},
			Workers:      1,
		})
		return res.Runs, len(res.Violations)
	}
}

// benchFleet measures the pinned fig1 n=3 source sweep through the fleet
// coordinator at two worker processes, returning the best-of-two result and
// the (deterministic) executed-run count.
func benchFleet() (testing.BenchmarkResult, int64, error) {
	self, err := os.Executable()
	if err != nil {
		return testing.BenchmarkResult{}, 0, fmt.Errorf("locating own binary for the fleet benchmark: %w", err)
	}
	// The Spec mirror of exploreBenchmarks' pinned sweep. MaxViolations is
	// effectively unbounded so the per-worker violation budget cannot couple
	// shards (it never binds here anyway: the real protocol is clean).
	spec := fleet.Spec{
		System: "fig1", N: 3, F: 2,
		MaxDepth: 12, Budget: 2048, CrashTimes: []int64{0},
		MaxViolations: 1 << 20, Workers: 1,
	}
	run := func() (int64, error) {
		sum, err := fleet.Run(fleet.Options{
			Spec:      spec,
			Procs:     2,
			WorkerCmd: []string{self, "-fleet-worker"},
		})
		if err != nil {
			return 0, err
		}
		if n := len(sum.Result.Violations); n != 0 {
			return 0, fmt.Errorf("%d violations on the real protocol", n)
		}
		return sum.Result.Runs, nil
	}
	runs, err := run()
	if err != nil {
		return testing.BenchmarkResult{}, 0, fmt.Errorf("explore/fig1-n3/fleet-2proc: %w", err)
	}
	res := benchBest(2, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := run()
			if err != nil {
				b.Fatal(err)
			}
			if r != runs {
				b.Fatalf("run count drifted: %v -> %v", runs, r)
			}
		}
	})
	return res, runs, nil
}

// familyBench is one per-family benchmark: a fixed configuration of the
// family's facade entry point, run once per op on the machine runner. The
// returned count is the run's simulated steps.
type familyBench struct {
	name string
	run  func(seed int64) (int64, error)
}

func familyBenchmarks() []familyBench {
	proposals := func(n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(100 + i)
		}
		return out
	}
	return []familyBench{
		{"fig1", func(seed int64) (int64, error) {
			res, err := weakestfd.SolveSetAgreement(weakestfd.SetAgreementConfig{
				N: 9, Proposals: proposals(9), CrashAt: map[int]int64{1: 9, 2: 18},
				StabilizeAt: 150, Seed: seed, Budget: 1 << 22,
			})
			if err != nil {
				return 0, err
			}
			return res.Steps, nil
		}},
		{"fig2", func(seed int64) (int64, error) {
			res, err := weakestfd.SolveSetAgreement(weakestfd.SetAgreementConfig{
				N: 6, F: 2, Algorithm: weakestfd.UpsilonFFig2,
				Proposals: proposals(6), CrashAt: map[int]int64{0: 13, 1: 26},
				StabilizeAt: 150, Seed: seed, Budget: 1 << 22,
			})
			if err != nil {
				return 0, err
			}
			return res.Steps, nil
		}},
		{"extract", func(seed int64) (int64, error) {
			res, err := weakestfd.ExtractUpsilon(weakestfd.ExtractConfig{
				N: 5, From: weakestfd.Omega, StabilizeAt: 150,
				Seed: seed, Budget: 40_000,
			})
			if err != nil {
				return 0, err
			}
			return res.Steps, nil
		}},
		{"compose", func(seed int64) (int64, error) {
			res, err := weakestfd.SolveWithStableDetector(weakestfd.ComposeConfig{
				N: 4, From: weakestfd.Omega, Proposals: proposals(4),
				StabilizeAt: 100, Seed: seed, Budget: 1 << 22,
			})
			if err != nil {
				return 0, err
			}
			return res.Steps, nil
		}},
		{"timing", func(seed int64) (int64, error) {
			res, err := weakestfd.SolveWithTimingAssumptions(weakestfd.TimedConfig{
				N: 4, Proposals: proposals(4), CrashAt: map[int]int64{1: 300},
				GST: 800, Bound: 8, Seed: seed,
			})
			if err != nil {
				return 0, err
			}
			return res.Steps, nil
		}},
		{"async-livelock", func(seed int64) (int64, error) {
			_, err := weakestfd.SolveSetAgreement(weakestfd.SetAgreementConfig{
				N: 4, Algorithm: weakestfd.AsyncAttempt, Proposals: proposals(4),
				Schedule: weakestfd.RoundRobinSchedule, Budget: 100_000,
			})
			if !errors.Is(err, weakestfd.ErrNoTermination) {
				return 0, fmt.Errorf("expected livelock, got %v", err)
			}
			return 100_000, nil
		}},
	}
}
