package core

import (
	"testing"
	"testing/quick"

	"weakestfd/internal/converge"
	"weakestfd/internal/fd"
	"weakestfd/internal/sim"
)

func TestUpsilonSpecSizes(t *testing.T) {
	if got := Upsilon(4).MinSize(); got != 1 {
		t.Errorf("Υ MinSize = %d, want 1", got)
	}
	if got := UpsilonF(6, 2).MinSize(); got != 4 {
		t.Errorf("Υ² MinSize = %d, want n+1−f = 4", got)
	}
}

func TestUpsilonLegalStable(t *testing.T) {
	// The paper's 3-process example: p1 fails, p2 and p3 correct. Every
	// non-empty subset except {p2,p3} is legal.
	pattern := sim.CrashPattern(3, map[sim.PID]sim.Time{0: 10})
	spec := Upsilon(3)
	legal := []sim.Set{
		sim.SetOf(0), sim.SetOf(1), sim.SetOf(2),
		sim.SetOf(0, 2), sim.SetOf(0, 1), sim.SetOf(0, 1, 2),
	}
	for _, u := range legal {
		if err := spec.LegalStable(pattern, u); err != nil {
			t.Errorf("%v should be legal: %v", u, err)
		}
	}
	if err := spec.LegalStable(pattern, sim.SetOf(1, 2)); err == nil {
		t.Errorf("{p2,p3} is the correct set and must be illegal")
	}
	if err := spec.LegalStable(pattern, sim.EmptySet); err == nil {
		t.Errorf("∅ must be illegal")
	}
}

func TestUpsilonFLegalStableSize(t *testing.T) {
	pattern := sim.FailFree(5)
	spec := UpsilonF(5, 2)
	if err := spec.LegalStable(pattern, sim.SetOf(0, 1)); err == nil {
		t.Error("size-2 set must be illegal for Υ² with n=5 (min size 3)")
	}
	if err := spec.LegalStable(pattern, sim.SetOf(0, 1, 2)); err != nil {
		t.Errorf("size-3 set should be legal: %v", err)
	}
	if err := spec.LegalStable(pattern, sim.FullSet(5)); err == nil {
		t.Error("Π = correct(F) must be illegal in a failure-free pattern")
	}
}

func TestUpsilonHistoryCompliance(t *testing.T) {
	patterns := map[string]sim.Pattern{
		"failfree":  sim.FailFree(4),
		"one":       sim.CrashPattern(4, map[sim.PID]sim.Time{3: 40}),
		"wait-free": sim.CrashPattern(4, map[sim.PID]sim.Time{0: 1, 1: 7, 2: 13}),
	}
	for name, pattern := range patterns {
		t.Run(name, func(t *testing.T) {
			spec := Upsilon(4)
			for seed := int64(0); seed < 20; seed++ {
				h := spec.History(pattern, 120, seed)
				if _, from, err := fd.CheckStable(h, pattern, 600, spec.Legal(pattern)); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				} else if from > 120 {
					t.Errorf("seed %d: stabilized at %d > 120", seed, from)
				}
			}
		})
	}
}

func TestUpsilonFHistoryCompliance(t *testing.T) {
	for n := 3; n <= 6; n++ {
		for f := 1; f < n; f++ {
			spec := UpsilonF(n, f)
			pattern := sim.FailFree(n)
			for seed := int64(0); seed < 5; seed++ {
				h := spec.History(pattern, 50, seed)
				if _, _, err := fd.CheckStable(h, pattern, 300, spec.Legal(pattern)); err != nil {
					t.Fatalf("n=%d f=%d seed=%d: %v", n, f, seed, err)
				}
				// Noise must also respect the range (size ≥ n−f).
				for ts := sim.Time(0); ts < 50; ts++ {
					u := h.Value(0, ts).(sim.Set)
					if u.Len() < spec.MinSize() {
						t.Fatalf("noise set %v below min size %d", u, spec.MinSize())
					}
				}
			}
		}
	}
}

func TestStableChoiceCoversVariety(t *testing.T) {
	// Υ's stable output may be any set except correct(F): across seeds we
	// should see sets that contain no correct process, sets that contain
	// faulty processes, and Π itself.
	pattern := sim.CrashPattern(3, map[sim.PID]sim.Time{0: 5})
	spec := Upsilon(3)
	seen := make(map[sim.Set]bool)
	for seed := int64(0); seed < 200; seed++ {
		seen[spec.StableChoice(pattern, seed)] = true
	}
	if len(seen) < 4 {
		t.Errorf("StableChoice covered only %d distinct sets", len(seen))
	}
	if seen[pattern.Correct()] {
		t.Errorf("StableChoice produced the correct set")
	}
}

func TestHistoryWithStableRejectsIllegal(t *testing.T) {
	pattern := sim.FailFree(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Upsilon(3).HistoryWithStable(pattern, 0, 0, sim.FullSet(3)) // Π = correct
}

func TestUpsilonFParamValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	UpsilonF(4, 4) // f must be < n
}

func TestComplementOfOmegaFIsLegalUpsilonF(t *testing.T) {
	// Section 5.3: Ω^f → Υ^f by complement. Check spec compliance of the
	// transformed history across patterns and seeds.
	for f := 1; f <= 4; f++ {
		crashes := map[sim.PID]sim.Time{}
		for i := 0; i < f; i++ {
			crashes[sim.PID(i)] = sim.Time(10 * (i + 1))
		}
		pattern := sim.CrashPattern(5, crashes)
		spec := UpsilonF(5, f)
		if f == 4 {
			spec = Upsilon(5) // wait-free case
		}
		for seed := int64(0); seed < 10; seed++ {
			omegaF := fd.NewOmegaF(pattern, f, 80, seed)
			upsilon := ComplementOfOmegaF(omegaF, 5)
			if _, _, err := fd.CheckStable(upsilon, pattern, 400, spec.Legal(pattern)); err != nil {
				t.Fatalf("f=%d seed=%d: %v", f, seed, err)
			}
		}
	}
}

func TestComplementOfOmegaIsLegalUpsilon(t *testing.T) {
	// Section 4: Ω → Υ by complement (2-process equivalence direction,
	// legal at any n).
	for n := 2; n <= 5; n++ {
		pattern := sim.CrashPattern(n, map[sim.PID]sim.Time{sim.PID(n - 1): 25})
		spec := Upsilon(n)
		for seed := int64(0); seed < 10; seed++ {
			omega := fd.NewOmega(pattern, 60, seed)
			upsilon := ComplementOfOmega(omega, n)
			if _, _, err := fd.CheckStable(upsilon, pattern, 300, spec.Legal(pattern)); err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
		}
	}
}

func TestOmegaFromUpsilon2(t *testing.T) {
	// Section 4: with two processes, Υ yields Ω.
	patterns := map[string]sim.Pattern{
		"failfree": sim.FailFree(2),
		"p1-crash": sim.CrashPattern(2, map[sim.PID]sim.Time{0: 30}),
		"p2-crash": sim.CrashPattern(2, map[sim.PID]sim.Time{1: 30}),
	}
	for name, pattern := range patterns {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				upsilon := Upsilon(2).History(pattern, 70, seed)
				omega := OmegaFromUpsilon2(upsilon)
				if _, _, err := fd.CheckStable(omega, pattern, 400, fd.OmegaLegal(pattern)); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

func TestHistoryWorstCase(t *testing.T) {
	pattern := sim.CrashPattern(4, map[sim.PID]sim.Time{1: 9})
	spec := Upsilon(4)
	h := spec.HistoryWorstCase(pattern, 100, 3)
	// Pre-stabilization the output is exactly correct(F) — legal because
	// the spec only constrains eventual output.
	if got := h.Value(2, 50).(sim.Set); got != pattern.Correct() {
		t.Errorf("noise = %v, want correct %v", got, pattern.Correct())
	}
	if _, _, err := fd.CheckStable(h, pattern, 400, spec.Legal(pattern)); err != nil {
		t.Fatal(err)
	}
	// Padding kicks in when correct(F) is below the minimum size.
	spec2 := UpsilonF(4, 1) // min size 3
	pattern2 := sim.CrashPattern(4, map[sim.PID]sim.Time{3: 9})
	h2 := spec2.HistoryWorstCase(pattern2, 100, 3)
	if got := h2.Value(0, 10).(sim.Set); got.Len() < spec2.MinSize() {
		t.Errorf("worst-case noise %v below min size %d", got, spec2.MinSize())
	}
}

func TestFig1WorstCaseNoiseDelaysDecision(t *testing.T) {
	// Under lockstep, worst-case legal noise pins the protocol until ts:
	// the run's step count must exceed ts.
	n := 4
	pattern := sim.FailFree(n)
	h := Upsilon(n).HistoryWorstCase(pattern, 800, 2)
	g := NewFig1(n, h, converge.UseAtomic)
	machines := make([]sim.StepMachine, n)
	for i := range machines {
		machines[i] = g.Machine(sim.Value(100 + i))
	}
	rep, err := sim.RunMachines(sim.Config{Pattern: pattern, Schedule: sim.RoundRobin(), Budget: 1 << 20}, machines)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps <= 800 {
		t.Fatalf("decided in %d steps, before stabilization at 800", rep.Steps)
	}
	if len(rep.DecidedValues()) > n-1 {
		t.Fatalf("agreement: %v", rep.DecidedValues())
	}
}

func TestUpsilonQuickLegality(t *testing.T) {
	// Property: StableChoice is always legal; History stabilizes to it.
	prop := func(seed int64, crash uint8) bool {
		n := 4
		pattern := sim.FailFree(n)
		if crash%2 == 0 {
			pattern = sim.CrashPattern(n, map[sim.PID]sim.Time{sim.PID(crash % 4): 9})
		}
		spec := Upsilon(n)
		u := spec.StableChoice(pattern, seed)
		if spec.LegalStable(pattern, u) != nil {
			return false
		}
		h := spec.History(pattern, 30, seed)
		return h.Value(0, 1000).(sim.Set) == u
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
