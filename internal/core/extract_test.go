package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"weakestfd/internal/check"
	"weakestfd/internal/fd"
	"weakestfd/internal/memory"
	"weakestfd/internal/sim"
)

// runExtraction drives one Figure 3 run to its budget and returns the
// recorded output trace. Extraction bodies never return, so the runner
// reports budget exhaustion; that is the expected way these runs end.
func runExtraction(t *testing.T, pattern sim.Pattern, d sim.Oracle, phi Phi, sched sim.Schedule, budget int64) (*Extraction, *check.OutputTrace[sim.Set]) {
	t.Helper()
	n := pattern.N()
	ex := NewExtraction(n, d, phi)
	machines := make([]sim.StepMachine, n)
	for i := range machines {
		machines[i] = ex.Machine()
	}
	trace := check.NewOutputTrace[sim.Set](n, ex.OutputAt)
	rep, err := sim.RunMachines(sim.Config{
		Pattern:  pattern,
		Schedule: sched,
		Budget:   budget,
		StopWhen: trace.Hook(),
	}, machines)
	if err != nil && !errors.Is(err, sim.ErrBudgetExhausted) {
		t.Fatalf("extraction run: %v", err)
	}
	if !rep.BudgetExhausted {
		t.Fatalf("extraction must run to budget")
	}
	return ex, trace
}

// assertUpsilonF checks that the extracted outputs satisfy the Υ^f contract:
// eventual agreement at correct processes on a legal stable set, with the
// stabilization point comfortably before the horizon.
func assertUpsilonF(t *testing.T, spec UpsilonSpec, pattern sim.Pattern, trace *check.OutputTrace[sim.Set]) (sim.Set, sim.Time) {
	t.Helper()
	stable, from, err := trace.StableFrom(pattern.Correct())
	if err != nil {
		t.Fatalf("extracted outputs did not agree: %v", err)
	}
	if err := spec.LegalStable(pattern, stable); err != nil {
		t.Fatalf("extracted stable output illegal: %v", err)
	}
	if horizon := trace.Horizon(); from > horizon*3/4 {
		t.Fatalf("outputs stabilized too late: %d of horizon %d", from, horizon)
	}
	return stable, from
}

func TestExtractFromOmega(t *testing.T) {
	// Theorem 10 instantiated at D = Ω: the generic reduction recovers the
	// complement reduction of Section 4.
	patterns := map[string]sim.Pattern{
		"failfree": sim.FailFree(4),
		"crash1":   sim.CrashPattern(4, map[sim.PID]sim.Time{1: 400}),
		"crash3": sim.CrashPattern(4, map[sim.PID]sim.Time{
			0: 300, 1: 500, 2: 700}),
	}
	for name, pattern := range patterns {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				omega := fd.NewOmega(pattern, 200, seed)
				ex, trace := runExtraction(t, pattern, omega, PhiOmega(4),
					sim.NewRandom(seed), 60_000)
				stable, _ := assertUpsilonF(t, Upsilon(4), pattern, trace)
				// With every process alive long enough to complete batches
				// in the stabilized round, the output is the leader's
				// complement; with crashes stalling batches it may be Π.
				leader := omega.Value(pattern.Correct().Min(), 1<<40).(sim.PID)
				comp := sim.SetOf(leader).Complement(4)
				if stable != comp && stable != sim.FullSet(4) {
					t.Errorf("seed %d: stable %v, want %v or Π", seed, stable, comp)
				}
				_ = ex
			}
		})
	}
}

func TestExtractFromOmegaFailFreeGivesComplement(t *testing.T) {
	// In a failure-free run batches always complete, so the output must be
	// exactly the complement, not the Π fallback.
	pattern := sim.FailFree(5)
	omega := fd.NewOmega(pattern, 100, 3)
	_, trace := runExtraction(t, pattern, omega, PhiOmega(5), sim.RoundRobin(), 60_000)
	stable, _ := assertUpsilonF(t, Upsilon(5), pattern, trace)
	leader := omega.Value(0, 1<<40).(sim.PID)
	if want := sim.SetOf(leader).Complement(5); stable != want {
		t.Fatalf("stable %v, want complement %v", stable, want)
	}
}

func TestExtractFromOmegaN(t *testing.T) {
	// D = Ωn (the paper's [18] detector): extraction yields Υ. This is the
	// executable content of "Υ is weaker than Ωn" (half of Theorem 1).
	n := 5
	pattern := sim.CrashPattern(n, map[sim.PID]sim.Time{2: 350})
	for seed := int64(0); seed < 4; seed++ {
		omegaN := fd.NewOmegaF(pattern, n-1, 150, seed)
		_, trace := runExtraction(t, pattern, omegaN, PhiOmegaF(n),
			sim.NewRandom(seed+50), 60_000)
		assertUpsilonF(t, Upsilon(n), pattern, trace)
	}
}

func TestExtractFromOmegaFGrid(t *testing.T) {
	// D = Ω^f across the resilience grid: extraction yields Υ^f in E_f.
	n := 5
	for f := 2; f < n; f++ {
		for crashed := 0; crashed <= f; crashed += f {
			t.Run(fmt.Sprintf("f%d/crash%d", f, crashed), func(t *testing.T) {
				pattern := sim.FailFree(n)
				if crashed > 0 {
					crashes := make(map[sim.PID]sim.Time, crashed)
					for i := 0; i < crashed; i++ {
						crashes[sim.PID(i)] = sim.Time(300 + 40*i)
					}
					pattern = sim.CrashPattern(n, crashes)
				}
				omegaF := fd.NewOmegaF(pattern, f, 150, 7)
				_, trace := runExtraction(t, pattern, omegaF, PhiOmegaF(n),
					sim.NewRandom(11), 80_000)
				assertUpsilonF(t, UpsilonF(n, f), pattern, trace)
			})
		}
	}
}

func TestExtractFromStableEvPerfect(t *testing.T) {
	// D = stable ◇P: a much stronger stable detector also reduces to Υ^f —
	// minimality does not care how strong D is.
	n := 4
	tests := map[string]sim.Pattern{
		"failfree": sim.FailFree(n),
		"crash2":   sim.CrashPattern(n, map[sim.PID]sim.Time{0: 250, 3: 450}),
	}
	for name, pattern := range tests {
		t.Run(name, func(t *testing.T) {
			evp := fd.NewStableEvPerfect(pattern, 120, 5)
			_, trace := runExtraction(t, pattern, evp, PhiStableEvPerfect(n),
				sim.NewRandom(9), 60_000)
			assertUpsilonF(t, Upsilon(n), pattern, trace)
		})
	}
}

func TestExtractBatchCountingPath(t *testing.T) {
	// φ with w(σ) > 0 exercises the Figure 3 batch machinery (line 15): the
	// output must still stabilize legally, and in failure-free runs it must
	// reach S (batches complete).
	n := 4
	pattern := sim.FailFree(n)
	for _, slack := range []int{1, 3, 10} {
		t.Run(fmt.Sprintf("w%d", slack), func(t *testing.T) {
			omega := fd.NewOmega(pattern, 100, 2)
			_, trace := runExtraction(t, pattern, omega, PhiOmegaSlack(n, slack),
				sim.RoundRobin(), 80_000)
			stable, _ := assertUpsilonF(t, Upsilon(n), pattern, trace)
			leader := omega.Value(0, 1<<40).(sim.PID)
			if want := sim.SetOf(leader).Complement(n); stable != want {
				t.Fatalf("stable %v, want %v", stable, want)
			}
		})
	}
}

func TestExtractCrashStallsBatches(t *testing.T) {
	// A process that crashes before the stabilized round's batches complete
	// freezes them; every correct process must then stay at Π — which is a
	// legal output precisely because someone crashed.
	n := 4
	pattern := sim.CrashPattern(n, map[sim.PID]sim.Time{3: 5})
	omega := fd.NewOmega(pattern, 0, 4) // stable from the start
	_, trace := runExtraction(t, pattern, omega, PhiOmegaSlack(n, 2),
		sim.RoundRobin(), 60_000)
	stable, _ := assertUpsilonF(t, Upsilon(n), pattern, trace)
	if stable != sim.FullSet(n) {
		t.Fatalf("stalled batches should leave Π, got %v", stable)
	}
}

func TestExtractSlowStabilization(t *testing.T) {
	// Long noise period: rounds churn until D stabilizes, then the output
	// locks in.
	n := 4
	pattern := sim.FailFree(n)
	omega := fd.NewOmega(pattern, 5_000, 6)
	_, trace := runExtraction(t, pattern, omega, PhiOmega(n), sim.NewRandom(3), 120_000)
	_, from := assertUpsilonF(t, Upsilon(n), pattern, trace)
	if from < 1_000 {
		t.Fatalf("output stabilized at %d, before D could have (noise ends at step ~5000/(2n+3) per process)", from)
	}
}

func TestExtractStabilizationLagBounded(t *testing.T) {
	// The extraction overhead (output stabilization − detector
	// stabilization) should be modest: bounded by a few batch lengths.
	n := 4
	pattern := sim.FailFree(n)
	omega := fd.NewOmega(pattern, 500, 8)
	_, trace := runExtraction(t, pattern, omega, PhiOmega(n), sim.RoundRobin(), 100_000)
	_, from := assertUpsilonF(t, Upsilon(n), pattern, trace)
	if from > 20_000 {
		t.Fatalf("extraction lag too large: stabilized at %d for ts=500", from)
	}
}

func TestExtractFromOpaqueRangeDetector(t *testing.T) {
	// Section 3.2: detector ranges are unrestricted. The tagged Ω^f variant
	// outputs opaque strings; extraction must work unchanged through its
	// φ_D map (Corollary 9 is range-agnostic).
	n := 5
	patterns := map[string]sim.Pattern{
		"failfree": sim.FailFree(n),
		"crash":    sim.CrashPattern(n, map[sim.PID]sim.Time{1: 350}),
	}
	for name, pattern := range patterns {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				tagged := fd.NewTaggedOmegaF(pattern, n-1, 150, seed)
				_, trace := runExtraction(t, pattern, tagged, PhiTaggedOmegaF(n),
					sim.NewRandom(seed+33), 60_000)
				assertUpsilonF(t, Upsilon(n), pattern, trace)
			}
		})
	}
}

func TestTagSetRoundTrip(t *testing.T) {
	for _, s := range []sim.Set{sim.EmptySet, sim.SetOf(0), sim.SetOf(1, 3, 5), sim.FullSet(6)} {
		tag := fd.TagSet(s)
		got, err := fd.UntagSet(tag)
		if err != nil {
			t.Fatalf("UntagSet(%q): %v", tag, err)
		}
		if got != s {
			t.Fatalf("round trip %v → %q → %v", s, tag, got)
		}
	}
	if _, err := fd.UntagSet("bogus"); err == nil {
		t.Error("expected error for missing prefix")
	}
	if _, err := fd.UntagSet("excl:x1"); err == nil {
		t.Error("expected error for bad element")
	}
}

func TestExtractNilPhiPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewExtraction(3, fd.Constant(sim.PID(0)), nil)
}

func TestPhiCatalogue(t *testing.T) {
	n := 5
	if s, w := PhiOmega(n)(sim.PID(2)); s != sim.SetOf(2).Complement(n) || w != 0 {
		t.Errorf("PhiOmega = (%v, %d)", s, w)
	}
	l := sim.SetOf(0, 1, 2, 3)
	if s, w := PhiOmegaF(n)(l); s != sim.SetOf(4) || w != 0 {
		t.Errorf("PhiOmegaF = (%v, %d)", s, w)
	}
	if s, _ := PhiStableEvPerfect(n)(sim.SetOf(1)); s != sim.FullSet(n) {
		t.Errorf("PhiStableEvPerfect(non-empty) = %v", s)
	}
	if s, w := PhiStableEvPerfect(n)(sim.EmptySet); s != sim.SetOf(0).Complement(n) || w != 1 {
		t.Errorf("PhiStableEvPerfect(∅) = (%v, %d)", s, w)
	}
	if s, w := PhiOmegaSlack(n, 4)(sim.PID(0)); s != sim.SetOf(0).Complement(n) || w != 4 {
		t.Errorf("PhiOmegaSlack = (%v, %d)", s, w)
	}
}

func TestPhiTypeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PhiOmega(3)("not a pid")
}

// TestOutputRecordMatchesPoll: the extraction's record of output changes,
// kept by each output register's writer, reports what a check.OutputTrace
// polling every output after every step reports — the same final outputs,
// the same common value and stabilization time, and byte-identical errors —
// over every source detector ExtractUpsilon extracts from, failure-free,
// with a late crash and with a crash at time 0, for the real reduction and
// every output mutant.
func TestOutputRecordMatchesPoll(t *testing.T) {
	const budget = 3000
	sources := []struct {
		name   string
		oracle func(p sim.Pattern, seed int64) sim.Oracle
		phi    func(n int) Phi
	}{
		{"omega", func(p sim.Pattern, seed int64) sim.Oracle { return fd.NewOmega(p, 200, seed) }, PhiOmega},
		{"omegaN", func(p sim.Pattern, seed int64) sim.Oracle { return fd.NewOmegaF(p, p.N()-1, 200, seed) }, PhiOmegaF},
		{"omegaF2", func(p sim.Pattern, seed int64) sim.Oracle { return fd.NewOmegaF(p, 2, 200, seed) }, PhiOmegaF},
		{"stable-evP", func(p sim.Pattern, seed int64) sim.Oracle { return fd.NewStableEvPerfect(p, 200, seed) }, PhiStableEvPerfect},
	}
	errText := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	runs := 0
	for _, src := range sources {
		for _, n := range []int{3, 5} {
			for seed := int64(1); seed <= 20; seed++ {
				victim := sim.PID(seed % int64(n))
				patterns := []sim.Pattern{
					sim.FailFree(n),
					sim.CrashPattern(n, map[sim.PID]sim.Time{victim: 500}),
					sim.CrashPattern(n, map[sim.PID]sim.Time{victim: 0}),
				}
				for _, pattern := range patterns {
					for _, mut := range []ExtractMutation{MutExNone, MutExFullOutput, MutExEmptyOutput, MutExStaleLeader} {
						ex := NewExtraction(n, src.oracle(pattern, seed), src.phi(n))
						machines := make([]sim.StepMachine, n)
						for i := range machines {
							machines[i] = ex.MutantMachine(mut)
						}
						trace := check.NewOutputTrace[sim.Set](n, ex.OutputAt)
						rep, err := sim.RunMachines(sim.Config{
							Pattern:  pattern,
							Schedule: sim.NewRandom(seed),
							Budget:   budget,
							StopWhen: trace.Hook(),
						}, machines)
						if err != nil && !errors.Is(err, sim.ErrBudgetExhausted) {
							t.Fatalf("extraction run: %v", err)
						}
						name := fmt.Sprintf("%s n=%d seed=%d %v %v", src.name, n, seed, pattern, mut)
						if got, want := ex.Outputs(nil), trace.Final(); !slices.Equal(got, want) {
							t.Fatalf("%s: final outputs %v, poll %v", name, got, want)
						}
						// {victim} alone, crashed at 0, never changes its
						// output: the poll's first sample still stamps it.
						for _, procs := range []sim.Set{pattern.Correct(), sim.FullSet(n), sim.SetOf(victim), sim.EmptySet} {
							gs, gf, gerr := ex.StableFrom(procs, rep.Steps)
							ws, wf, werr := trace.StableFrom(procs)
							if gs != ws || gf != wf || errText(gerr) != errText(werr) {
								t.Fatalf("%s over %v: record (%v, %d, %s), poll (%v, %d, %s)",
									name, procs, gs, gf, errText(gerr), ws, wf, errText(werr))
							}
						}
						runs++
					}
				}
			}
		}
	}
	if runs != 4*2*20*3*4 {
		t.Fatalf("compared %d runs", runs)
	}

	// A run of no steps has no samples.
	ex := NewExtraction(3, fd.NewOmega(sim.FailFree(3), 0, 1), PhiOmega(3))
	trace := check.NewOutputTrace[sim.Set](3, ex.OutputAt)
	_, _, gerr := ex.StableFrom(sim.FullSet(3), 0)
	_, _, werr := trace.StableFrom(sim.FullSet(3))
	if errText(gerr) != errText(werr) || gerr == nil {
		t.Fatalf("no steps: record error %s, poll error %s", errText(gerr), errText(werr))
	}
}

// TestDigestedReportWriteAllocBound: publishing a report records its
// fingerprint without boxing it, so a digested write allocates nothing,
// and the fingerprint the digest folds is the boxed one.
func TestDigestedReportWriteAllocBound(t *testing.T) {
	rep := report{val: sim.PID(1), ts: 7}
	digest := func(write func(*sim.AccessLog)) (uint64, float64) {
		log := sim.NewAccessLog()
		log.EnableDigest()
		step := func() {
			log.Reset()
			log.BeginStep()
			write(log)
			log.EndStep(0)
		}
		step()
		return log.StateDigest(), testing.AllocsPerRun(100, step)
	}
	reports := memory.NewArray[report](keyReports, 3)
	got, allocs := digest(func(l *sim.AccessLog) { reports.DirectWrite(l, 2, rep) })
	if allocs != 0 {
		t.Errorf("digested report write allocated %.1f objects; want 0", allocs)
	}
	want, _ := digest(func(l *sim.AccessLog) {
		l.RecordValued(l.Intern(keyReports.WithCell(2)), sim.AccessWrite, sim.StateFP(rep))
	})
	if got != want {
		t.Errorf("digest after a report write = %#x, want %#x as with the boxed fingerprint", got, want)
	}
}
