package fd

import (
	"fmt"
	"testing"
	"testing/quick"

	"weakestfd/internal/sim"
)

func TestMixDeterministic(t *testing.T) {
	a := Mix(1, 2, 3)
	b := Mix(1, 2, 3)
	if a != b {
		t.Fatal("Mix not deterministic")
	}
	if Mix(1, 2, 3) == Mix(1, 2, 4) && Mix(1, 2, 4) == Mix(1, 2, 5) {
		t.Error("Mix suspiciously constant")
	}
}

func TestNoisePIDInRange(t *testing.T) {
	prop := func(seed int64, p uint8, ts uint16) bool {
		n := 5
		pid := NoisePID(seed, n, sim.PID(p%8), sim.Time(ts))
		return pid >= 0 && pid < sim.PID(n)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestNoiseSetNonEmptySubset(t *testing.T) {
	prop := func(seed int64, p uint8, ts uint16) bool {
		n := 6
		s := NoiseSet(seed, n, sim.PID(p%8), sim.Time(ts))
		return !s.IsEmpty() && s.SubsetOf(sim.FullSet(n))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestNoiseSetOfSize(t *testing.T) {
	prop := func(seed int64, p uint8, ts uint16, kRaw uint8) bool {
		n := 7
		k := int(kRaw)%n + 1
		s := NoiseSetOfSize(seed, n, k, sim.PID(p%8), sim.Time(ts))
		return s.Len() == k && s.SubsetOf(sim.FullSet(n))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestNoiseSetOfSizeBounds(t *testing.T) {
	if got := NoiseSetOfSize(1, 4, 4, 0, 0); got != sim.FullSet(4) {
		t.Errorf("k=n should give the full set, got %v", got)
	}
	if got := NoiseSetOfSize(1, 4, 0, 0, 0); !got.IsEmpty() {
		t.Errorf("k=0 should give empty, got %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k > n")
		}
	}()
	NoiseSetOfSize(1, 4, 5, 0, 0)
}

func TestStabilizingOracle(t *testing.T) {
	o := &Stabilizing[int]{
		TS:     10,
		Stable: 99,
		Noise:  func(p sim.PID, t sim.Time) int { return int(t) },
	}
	if got := o.Value(0, 5); got != 5 {
		t.Errorf("pre-stabilization = %v", got)
	}
	if got := o.Value(0, 10); got != 99 {
		t.Errorf("at TS = %v", got)
	}
	if got := o.Value(3, 1000); got != 99 {
		t.Errorf("post-stabilization = %v", got)
	}
}

func TestConstantOracle(t *testing.T) {
	o := Constant("d")
	if o.Value(0, 0) != "d" || o.Value(5, 1<<40) != "d" {
		t.Error("Constant not constant")
	}
}

func TestOmegaSpecCompliance(t *testing.T) {
	tests := []struct {
		name    string
		pattern sim.Pattern
	}{
		{"failfree", sim.FailFree(4)},
		{"one-crash", sim.CrashPattern(4, map[sim.PID]sim.Time{2: 50})},
		{"waitfree", sim.CrashPattern(4, map[sim.PID]sim.Time{0: 1, 1: 2, 2: 3})},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				h := NewOmega(tt.pattern, 100, seed)
				stable, from, err := CheckStable(h, tt.pattern, 500, OmegaLegal(tt.pattern))
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if from > 100 {
					t.Errorf("seed %d: stabilized at %d, want ≤ 100", seed, from)
				}
				if !tt.pattern.Correct().Has(stable.(sim.PID)) {
					t.Errorf("seed %d: leader %v faulty", seed, stable)
				}
			}
		})
	}
}

func TestOmegaFSpecCompliance(t *testing.T) {
	pattern := sim.CrashPattern(5, map[sim.PID]sim.Time{1: 30})
	for size := 1; size <= 5; size++ {
		for seed := int64(0); seed < 8; seed++ {
			h := NewOmegaF(pattern, size, 64, seed)
			if _, _, err := CheckStable(h, pattern, 300, OmegaFLegal(pattern, size)); err != nil {
				t.Fatalf("size %d seed %d: %v", size, seed, err)
			}
		}
	}
}

func TestOmegaFStableSetPrefersFaulty(t *testing.T) {
	// With 2 faulty processes and size 3, the stable set should include the
	// leader plus the faulty processes (the least helpful legal choice).
	pattern := sim.CrashPattern(5, map[sim.PID]sim.Time{0: 1, 4: 1})
	s := omegaFStableSet(pattern, 3, 12)
	if !pattern.Faulty().SubsetOf(s) {
		t.Errorf("stable set %v should include all faulty %v", s, pattern.Faulty())
	}
	if s.Intersect(pattern.Correct()).IsEmpty() {
		t.Errorf("stable set %v must contain a correct process", s)
	}
}

func TestOmegaFSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for size 0")
		}
	}()
	NewOmegaF(sim.FailFree(3), 0, 0, 0)
}

func TestStableEvPerfect(t *testing.T) {
	pattern := sim.CrashPattern(4, map[sim.PID]sim.Time{1: 10, 3: 20})
	h := NewStableEvPerfect(pattern, 50, 9)
	stable, _, err := CheckStable(h, pattern, 200, func(v any) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stable.(sim.Set) != pattern.Faulty() {
		t.Errorf("stable = %v, want faulty %v", stable, pattern.Faulty())
	}
}

func TestAntiOmegaSpec(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		pattern := sim.CrashPattern(4, map[sim.PID]sim.Time{0: 5})
		h := NewAntiOmega(pattern, 40, seed)
		if err := CheckAntiOmega(h, pattern, 40, 400); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestAntiOmegaIsUnstable(t *testing.T) {
	pattern := sim.FailFree(4)
	h := NewAntiOmega(pattern, 0, 3)
	// The output should keep changing: CheckStable should fail (no common
	// suffix value at all correct processes).
	if _, _, err := CheckStable(h, pattern, 300, nil); err == nil {
		t.Error("anti-Ω checked as stable; it must not be")
	}
}

func TestCheckStableRejectsIllegal(t *testing.T) {
	pattern := sim.CrashPattern(3, map[sim.PID]sim.Time{2: 1})
	// A constant "leader = p3" history is stable but p3 is faulty.
	h := Constant(sim.PID(2))
	_, _, err := CheckStable(h, pattern, 100, OmegaLegal(pattern))
	if err == nil {
		t.Fatal("expected legality error")
	}
}

func TestCheckStableDetectsDivergence(t *testing.T) {
	pattern := sim.FailFree(2)
	h := FuncOracle(func(p sim.PID, t sim.Time) any { return p })
	if _, _, err := CheckStable(h, pattern, 100, nil); err == nil {
		t.Fatal("divergent history checked as stable")
	}
}

func TestQueryTypeMismatchPanics(t *testing.T) {
	o := Constant(42)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	QueryAt[string](nil, o, 0, 1) // wrong type: oracle yields int
}

func TestQueryTyped(t *testing.T) {
	o := Constant(sim.SetOf(1, 2))
	log := sim.NewAccessLog()
	seam := sim.NewQuerySeam(log)
	seam.Register("H", o)
	log.BeginStep()
	got := QueryAt[sim.Set](seam, o, 0, 1)
	log.EndStep(0)
	if got != sim.SetOf(1, 2) {
		t.Errorf("Query = %v", got)
	}
	// The query is a read of the history's virtual object.
	if _, accs := log.Step(0); log.AccessString(accs) != "R(H)" {
		t.Errorf("query recorded %s, want R(H)", log.AccessString(accs))
	}
}

func TestOmegaNoiseDiverges(t *testing.T) {
	// Pre-stabilization, different processes should (usually) see different
	// leaders — the oracle may output anything.
	pattern := sim.FailFree(8)
	h := NewOmega(pattern, 1000, 5)
	diverged := false
	for ts := sim.Time(0); ts < 50 && !diverged; ts++ {
		if h.Value(0, ts) != h.Value(1, ts) {
			diverged = true
		}
	}
	if !diverged {
		t.Error("noise period never diverged across processes")
	}
}

func TestTaggedOmegaFSpec(t *testing.T) {
	// The opaque-string-range Ω^f variant stabilizes on a tag whose decoded
	// set satisfies the Ω^f legality predicate.
	pattern := sim.CrashPattern(5, map[sim.PID]sim.Time{1: 40})
	for seed := int64(0); seed < 6; seed++ {
		h := NewTaggedOmegaF(pattern, 4, 80, seed)
		stable, _, err := CheckStable(h, pattern, 400, func(v any) error {
			tag, ok := v.(string)
			if !ok {
				return fmt.Errorf("range is %T, want string", v)
			}
			s, err := UntagSet(tag)
			if err != nil {
				return err
			}
			return OmegaFLegal(pattern, 4)(any(s))
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := UntagSet(stable.(string)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestTagSetEncoding(t *testing.T) {
	if got := TagSet(sim.SetOf(0, 2)); got != "excl:p1+p3" {
		t.Errorf("TagSet = %q", got)
	}
	if got := TagSet(sim.EmptySet); got != "excl:" {
		t.Errorf("TagSet(∅) = %q", got)
	}
	s, err := UntagSet("excl:p1+p3")
	if err != nil || s != sim.SetOf(0, 2) {
		t.Errorf("UntagSet = %v/%v", s, err)
	}
	if _, err := UntagSet("excl:p0"); err == nil {
		t.Error("p0 (1-based names start at p1) should be rejected")
	}
}
