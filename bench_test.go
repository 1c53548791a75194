package weakestfd_test

// Benchmarks, one family per experiment table of EXPERIMENTS.md (and hence
// per figure/theorem of the paper). Each op is one full simulated run, so
// ns/op measures the wall cost of regenerating a data point; the simulated
// step counts — the model-level metric the tables report — are exposed via
// the custom "steps/op" metric.
//
// Regenerate every table with:
//
//	go test -bench=. -benchmem
//	go run ./cmd/paperbench

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"weakestfd"
	"weakestfd/internal/agreement"
	"weakestfd/internal/check"
	"weakestfd/internal/converge"
	"weakestfd/internal/core"
	"weakestfd/internal/fd"
	"weakestfd/internal/lab"
	"weakestfd/internal/lab/scenarios"
	"weakestfd/internal/memory"
	"weakestfd/internal/sim"
)

// benchProposals returns n distinct proposals.
func benchProposals(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(100 + i)
	}
	return out
}

// BenchmarkFig1 is E1: the Υ-based n-set-agreement protocol across system
// sizes and failure patterns.
func BenchmarkFig1(b *testing.B) {
	for _, n := range []int{3, 5, 9, 17} {
		for _, crashes := range []int{0, n - 1} {
			name := fmt.Sprintf("n%d/crash%d", n, crashes)
			b.Run(name, func(b *testing.B) {
				crashAt := make(map[int]int64, crashes)
				for i := 0; i < crashes; i++ {
					crashAt[i+1] = int64(9 * (i + 1))
				}
				var steps int64
				for i := 0; i < b.N; i++ {
					res, err := weakestfd.SolveSetAgreement(weakestfd.SetAgreementConfig{
						N: n, Proposals: benchProposals(n), CrashAt: crashAt,
						StabilizeAt: 150, Seed: int64(i), Budget: 1 << 22,
					})
					if err != nil {
						b.Fatal(err)
					}
					steps += res.Steps
				}
				b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
			})
		}
	}
}

// BenchmarkFig2 is E2: the Υ^f-based f-set-agreement protocol across the
// resilience grid.
func BenchmarkFig2(b *testing.B) {
	for _, tc := range []struct{ n, f int }{{4, 1}, {6, 2}, {6, 5}, {10, 4}} {
		b.Run(fmt.Sprintf("n%d/f%d", tc.n, tc.f), func(b *testing.B) {
			crashAt := make(map[int]int64, tc.f)
			for i := 0; i < tc.f; i++ {
				crashAt[i] = int64(13 * (i + 1))
			}
			var steps int64
			for i := 0; i < b.N; i++ {
				res, err := weakestfd.SolveSetAgreement(weakestfd.SetAgreementConfig{
					N: tc.n, F: tc.f, Algorithm: weakestfd.UpsilonFFig2,
					Proposals: benchProposals(tc.n), CrashAt: crashAt,
					StabilizeAt: 150, Seed: int64(i), Budget: 1 << 22,
				})
				if err != nil {
					b.Fatal(err)
				}
				steps += res.Steps
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}

// BenchmarkExtraction is E3: the Figure 3 reduction from each stable
// detector.
func BenchmarkExtraction(b *testing.B) {
	for _, det := range []weakestfd.Detector{weakestfd.Omega, weakestfd.OmegaN, weakestfd.StableEvPerfect} {
		b.Run(det.String(), func(b *testing.B) {
			var lag int64
			for i := 0; i < b.N; i++ {
				res, err := weakestfd.ExtractUpsilon(weakestfd.ExtractConfig{
					N: 5, From: det, StabilizeAt: 150,
					Seed: int64(i), Budget: 40_000,
				})
				if err != nil {
					b.Fatal(err)
				}
				lag += res.StableFrom - 150
			}
			b.ReportMetric(float64(lag)/float64(b.N), "stabilization-lag-steps/op")
		})
	}
}

// BenchmarkAdversaryThm1 is E4: forcing candidate Ωn extractors to switch.
func BenchmarkAdversaryThm1(b *testing.B) {
	for _, ext := range core.AllExtractors() {
		b.Run(ext.Name, func(b *testing.B) {
			falsified := 0
			for i := 0; i < b.N; i++ {
				res := core.RunAdversary(core.AdversaryConfig{
					N: 5, F: 4, Extractor: ext,
					TargetSwitches: 20, Budget: 1 << 21,
				})
				if res.Falsified(20) {
					falsified++
				}
			}
			if falsified != b.N {
				b.Fatalf("falsified %d/%d", falsified, b.N)
			}
		})
	}
}

// BenchmarkAdversaryThm5 is E5: the f-resilient generalization.
func BenchmarkAdversaryThm5(b *testing.B) {
	for _, f := range []int{2, 4} {
		b.Run(fmt.Sprintf("f%d", f), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := core.RunAdversary(core.AdversaryConfig{
					N: 6, F: f, Extractor: core.StalenessExtractor(),
					TargetSwitches: 20, Budget: 1 << 21,
				})
				if !res.Falsified(20) {
					b.Fatal("not falsified")
				}
			}
		})
	}
}

// BenchmarkEquivalence2 is E6: the two-process Υ ≡ Ω reductions.
func BenchmarkEquivalence2(b *testing.B) {
	pattern := sim.CrashPattern(2, map[sim.PID]sim.Time{0: 30})
	b.Run("omega-to-upsilon", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			omega := fd.NewOmega(pattern, 60, int64(i))
			ups := core.ComplementOfOmega(omega, 2)
			if _, _, err := fd.CheckStable(ups, pattern, 300, core.Upsilon(2).Legal(pattern)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("upsilon-to-omega", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ups := core.Upsilon(2).History(pattern, 60, int64(i))
			om := core.OmegaFromUpsilon2(ups)
			if _, _, err := fd.CheckStable(om, pattern, 300, fd.OmegaLegal(pattern)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkUpsilon1ToOmega is E7: the E_1 extraction of Ω from Υ¹.
func BenchmarkUpsilon1ToOmega(b *testing.B) {
	n := 4
	pattern := sim.CrashPattern(n, map[sim.PID]sim.Time{2: 120})
	for i := 0; i < b.N; i++ {
		spec := core.UpsilonF(n, 1)
		h := spec.HistoryWithStable(pattern, 100, int64(i), sim.FullSet(n))
		red := core.NewUpsilon1ToOmega(n, h)
		machines := make([]sim.StepMachine, n)
		for j := range machines {
			machines[j] = red.Machine()
		}
		trace := check.NewOutputTrace[memory.Opt[sim.PID]](n, red.OutputAt)
		_, err := sim.RunMachines(sim.Config{
			Pattern: pattern, Schedule: sim.NewRandom(int64(i)),
			Budget: 20_000, StopWhen: trace.Hook(),
		}, machines)
		if err != nil && !errors.Is(err, sim.ErrBudgetExhausted) {
			b.Fatal(err)
		}
		stable, _, err := trace.StableFrom(pattern.Correct())
		if err != nil || !stable.OK || !pattern.Correct().Has(stable.V) {
			b.Fatalf("bad leader %+v (%v)", stable, err)
		}
	}
}

// BenchmarkComplementReductions is E8: the local Ω^f → Υ^f reductions.
func BenchmarkComplementReductions(b *testing.B) {
	n := 6
	pattern := sim.CrashPattern(n, map[sim.PID]sim.Time{1: 40})
	for i := 0; i < b.N; i++ {
		omegaN := fd.NewOmegaF(pattern, n-1, 80, int64(i))
		ups := core.ComplementOfOmegaF(omegaN, n)
		if _, _, err := fd.CheckStable(ups, pattern, 300, core.Upsilon(n).Legal(pattern)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImpossibility is E9: budget-bounded livelock detection for the
// FD-free attempt under the adversarial schedule.
func BenchmarkImpossibility(b *testing.B) {
	b.Run("async-livelock", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := weakestfd.SolveSetAgreement(weakestfd.SetAgreementConfig{
				N: 4, Algorithm: weakestfd.AsyncAttempt, Proposals: benchProposals(4),
				Schedule: weakestfd.RoundRobinSchedule, Budget: 20_000,
			})
			if !errors.Is(err, weakestfd.ErrNoTermination) {
				b.Fatalf("expected livelock, got %v", err)
			}
		}
	})
	b.Run("fig1-control", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := weakestfd.SolveSetAgreement(weakestfd.SetAgreementConfig{
				N: 4, Proposals: benchProposals(4),
				Schedule: weakestfd.RoundRobinSchedule, Seed: int64(i), Budget: 20_000,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSnapshot is E10a: atomic vs registers-only snapshots
// inside Figure 1.
func BenchmarkAblationSnapshot(b *testing.B) {
	for _, reg := range []bool{false, true} {
		name := "atomic"
		if reg {
			name = "afek-registers-only"
		}
		b.Run(name, func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				res, err := weakestfd.SolveSetAgreement(weakestfd.SetAgreementConfig{
					N: 4, Proposals: benchProposals(4), CrashAt: map[int]int64{1: 30},
					StabilizeAt: 100, Seed: int64(i),
					RegistersOnly: reg, Budget: 1 << 23,
				})
				if err != nil {
					b.Fatal(err)
				}
				steps += res.Steps
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}

// BenchmarkAblationStabilization is E10b: decision latency vs Υ
// stabilization time under worst-case legal noise.
func BenchmarkAblationStabilization(b *testing.B) {
	for _, ts := range []sim.Time{0, 500, 5000} {
		b.Run(fmt.Sprintf("ts%d", ts), func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				n := 5
				pattern := sim.FailFree(n)
				h := core.Upsilon(n).HistoryWorstCase(pattern, ts, int64(i))
				g := core.NewFig1(n, h, converge.UseAtomic)
				machines := make([]sim.StepMachine, n)
				for j := range machines {
					machines[j] = g.Machine(sim.Value(100 + j))
				}
				rep, err := sim.RunMachines(sim.Config{
					Pattern: pattern, Schedule: sim.RoundRobin(), Budget: 1 << 23,
				}, machines)
				if err != nil {
					b.Fatal(err)
				}
				steps += rep.Steps
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}

// BenchmarkAblationBaselines is E10d: Figure 1 vs the Ωn and Ω baselines on
// the same task and pattern.
func BenchmarkAblationBaselines(b *testing.B) {
	for _, alg := range []weakestfd.Algorithm{weakestfd.UpsilonFig1, weakestfd.OmegaNBaseline, weakestfd.OmegaConsensus, weakestfd.OmegaNBoosted} {
		b.Run(alg.String(), func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				res, err := weakestfd.SolveSetAgreement(weakestfd.SetAgreementConfig{
					N: 5, Algorithm: alg, Proposals: benchProposals(5),
					CrashAt: map[int]int64{2: 25}, StabilizeAt: 120,
					Seed: int64(i), Budget: 1 << 22,
				})
				if err != nil {
					b.Fatal(err)
				}
				steps += res.Steps
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}

// BenchmarkComposed measures the Figure 3 ∘ Figure 1 composition: solving
// set agreement through the generic reduction from each stable detector.
func BenchmarkComposed(b *testing.B) {
	for _, det := range []weakestfd.Detector{weakestfd.Omega, weakestfd.OmegaN, weakestfd.StableEvPerfect} {
		b.Run(det.String(), func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				res, err := weakestfd.SolveWithStableDetector(weakestfd.ComposeConfig{
					N: 4, From: det, Proposals: benchProposals(4),
					StabilizeAt: 100, Seed: int64(i), Budget: 1 << 22,
				})
				if err != nil {
					b.Fatal(err)
				}
				steps += res.Steps
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}

// BenchmarkTimingImplementation is E11: set agreement from timing
// assumptions alone (heartbeat Υ implementation + Figure 1 under an
// eventually synchronous schedule).
func BenchmarkTimingImplementation(b *testing.B) {
	var steps int64
	for i := 0; i < b.N; i++ {
		res, err := weakestfd.SolveWithTimingAssumptions(weakestfd.TimedConfig{
			N: 4, Proposals: benchProposals(4), CrashAt: map[int]int64{1: 300},
			GST: 800, Bound: 8, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
}

// BenchmarkAgreementBaselines exercises the agreement substrate directly.
func BenchmarkAgreementBaselines(b *testing.B) {
	n := 5
	pattern := sim.CrashPattern(n, map[sim.PID]sim.Time{1: 30})
	b.Run("omega-consensus", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			omega := fd.NewOmega(pattern, 100, int64(i))
			c := agreement.NewOmegaConsensus(n, omega, converge.UseAtomic)
			machines := make([]sim.StepMachine, n)
			for j := range machines {
				machines[j] = c.Machine(sim.Value(10 + j))
			}
			if _, err := sim.RunMachines(sim.Config{
				Pattern: pattern, Schedule: sim.NewRandom(int64(i)), Budget: 1 << 21,
			}, machines); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("omegan-setagreement", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			omegaN := fd.NewOmegaF(pattern, n-1, 100, int64(i))
			a := agreement.NewOmegaNSetAgreement(n, omegaN, converge.UseAtomic)
			machines := make([]sim.StepMachine, n)
			for j := range machines {
				machines[j] = a.Machine(sim.Value(10 + j))
			}
			if _, err := sim.RunMachines(sim.Config{
				Pattern: pattern, Schedule: sim.NewRandom(int64(i)), Budget: 1 << 21,
			}, machines); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLabMatrix drives the trimmed scenario matrix through the
// internal/lab engine across worker counts. The workers1/workersN ratio is
// the pool's parallel speedup. The aggregate results must be identical
// across both cells — asserted via the fingerprints after the timed loops.
func BenchmarkLabMatrix(b *testing.B) {
	scs, err := lab.ExpandAll(scenarios.Quick(2))
	if err != nil {
		b.Fatal(err)
	}
	fingerprints := make(map[string]string)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		name := fmt.Sprintf("workers%d", workers)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var rep *lab.Report
			for i := 0; i < b.N; i++ {
				rep = lab.Run(scs, lab.Options{Workers: workers})
				if rep.Failed != 0 {
					b.Fatalf("%d runs failed", rep.Failed)
				}
			}
			b.StopTimer()
			fingerprints[name] = rep.Fingerprint()
			b.ReportMetric(float64(len(scs)), "scenarios/op")
		})
	}
	var first, firstName string
	for name, fp := range fingerprints {
		if first == "" {
			first, firstName = fp, name
		}
		if fp != first {
			b.Fatalf("fingerprint at %s differs from %s: %s vs %s", name, firstName, fp, first)
		}
	}
}

// BenchmarkRunnerStepThroughput measures the raw per-step cost of the runner
// on a long budget-bounded run (the FD-free livelock, 100k steps per op):
// ns/op ÷ 100k is the cost per simulated step.
func BenchmarkRunnerStepThroughput(b *testing.B) {
	const budget = 100_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := weakestfd.SolveSetAgreement(weakestfd.SetAgreementConfig{
			N: 4, Algorithm: weakestfd.AsyncAttempt, Proposals: benchProposals(4),
			Schedule: weakestfd.RoundRobinSchedule, Budget: budget,
		})
		if !errors.Is(err, weakestfd.ErrNoTermination) {
			b.Fatalf("expected livelock, got %v", err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/budget, "ns/step")
}
