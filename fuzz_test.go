package weakestfd

// Randomized cross-validation: quick-check style sweeps over the whole
// facade. Every generated configuration must either solve its task with the
// advertised guarantees or fail with a well-typed error — never panic, never
// return an unchecked violation. This is the catch-all net under the
// targeted suites.

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genConfig derives a pseudo-random but valid configuration from raw bits.
func genConfig(raw [6]uint8, alg Algorithm) SetAgreementConfig {
	rng := rand.New(rand.NewSource(int64(raw[0])<<16 | int64(raw[1])<<8 | int64(raw[2])))
	n := 2 + int(raw[0]%6) // 2..7
	f := 1 + int(raw[1])%(n-1)
	proposals := make([]int64, n)
	distinct := 1 + int(raw[2])%n
	for i := range proposals {
		proposals[i] = int64(10 + i%distinct)
	}
	crashAt := map[int]int64{}
	budgetF := f
	if alg != UpsilonFFig2 {
		budgetF = n - 1
	}
	crashes := int(raw[3]) % (budgetF + 1)
	for i := 0; i < crashes; i++ {
		crashAt[(i*2+1)%n] = int64(5 + rng.Intn(200))
	}
	sched := RandomSchedule
	if raw[4]%4 == 0 {
		sched = RoundRobinSchedule
	}
	return SetAgreementConfig{
		N: n, F: f, Algorithm: alg,
		Proposals:   proposals,
		CrashAt:     crashAt,
		StabilizeAt: int64(raw[5]) * 4,
		Seed:        int64(raw[4]),
		Schedule:    sched,
		Budget:      1 << 22,
	}
}

func TestQuickSolveSetAgreementFig1(t *testing.T) {
	prop := func(raw [6]uint8) bool {
		cfg := genConfig(raw, UpsilonFig1)
		res, err := SolveSetAgreement(cfg)
		if err != nil {
			t.Logf("cfg %+v: %v", cfg, err)
			return false
		}
		return len(res.Distinct) <= res.K
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickSolveSetAgreementFig2(t *testing.T) {
	prop := func(raw [6]uint8) bool {
		cfg := genConfig(raw, UpsilonFFig2)
		res, err := SolveSetAgreement(cfg)
		if err != nil {
			t.Logf("cfg %+v: %v", cfg, err)
			return false
		}
		return len(res.Distinct) <= cfg.F
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickBaselines(t *testing.T) {
	for _, alg := range []Algorithm{OmegaNBaseline, OmegaConsensus, OmegaNBoosted} {
		t.Run(alg.String(), func(t *testing.T) {
			prop := func(raw [6]uint8) bool {
				cfg := genConfig(raw, alg)
				res, err := SolveSetAgreement(cfg)
				if err != nil {
					t.Logf("cfg %+v: %v", cfg, err)
					return false
				}
				return len(res.Distinct) <= res.K
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestQuickExtraction(t *testing.T) {
	dets := []Detector{Omega, OmegaN, OmegaF, StableEvPerfect}
	prop := func(raw [5]uint8) bool {
		n := 3 + int(raw[0]%4) // 3..6
		f := 2 + int(raw[1])%(n-2)
		det := dets[int(raw[2])%len(dets)]
		if det == OmegaN {
			f = n - 1 // Ωn extracts the wait-free Υ; the facade rejects other F
		}
		crashAt := map[int]int64{}
		if raw[3]%2 == 0 {
			crashAt[int(raw[3])%n] = int64(300 + 10*int(raw[4]))
		}
		res, err := ExtractUpsilon(ExtractConfig{
			N: n, F: f, From: det,
			StabilizeAt: int64(raw[4]) * 2,
			CrashAt:     crashAt,
			Seed:        int64(raw[0]) ^ int64(raw[4])<<3,
			Budget:      60_000,
		})
		if err != nil {
			t.Logf("n=%d f=%d det=%v: %v", n, f, det, err)
			return false
		}
		return res.LegalErr == nil && len(res.Stable) >= n-f
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickAsyncNeverViolatesSafety(t *testing.T) {
	// The FD-free attempt may or may not terminate; when it does, the
	// outcome must still satisfy (n−1)-set agreement, and when it does not,
	// the error must be ErrNoTermination, not a safety violation.
	prop := func(raw [6]uint8) bool {
		cfg := genConfig(raw, AsyncAttempt)
		cfg.Budget = 30_000
		res, err := SolveSetAgreement(cfg)
		if err != nil {
			return errors.Is(err, ErrNoTermination)
		}
		return len(res.Distinct) <= cfg.N-1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// FuzzSolveSetAgreement is the native fuzz face of the quick-check sweeps:
// every generated configuration, on either snapshot implementation, must keep
// the advertised k-set-agreement bound or fail with ErrNoTermination (only
// the FD-free attempt may), and two runs of one configuration must return
// identical results. CI runs it in short -fuzztime mode as a smoke job.
func FuzzSolveSetAgreement(f *testing.F) {
	f.Add(uint8(3), uint8(1), uint8(2), uint8(0), uint8(1), uint8(50), uint8(0), false)
	f.Add(uint8(5), uint8(2), uint8(4), uint8(2), uint8(4), uint8(0), uint8(1), true)
	f.Add(uint8(250), uint8(9), uint8(33), uint8(7), uint8(8), uint8(200), uint8(2), false)
	f.Add(uint8(66), uint8(3), uint8(1), uint8(1), uint8(0), uint8(12), uint8(5), true)
	f.Fuzz(func(t *testing.T, b0, b1, b2, b3, b4, b5, algByte uint8, registersOnly bool) {
		algs := []Algorithm{UpsilonFig1, UpsilonFFig2, OmegaNBaseline, OmegaConsensus, OmegaNBoosted, AsyncAttempt}
		alg := algs[int(algByte)%len(algs)]
		cfg := genConfig([6]uint8{b0, b1, b2, b3, b4, b5}, alg)
		cfg.RegistersOnly = registersOnly
		if alg == AsyncAttempt {
			// The FD-free attempt livelocks under round-robin; cap the budget
			// (as TestQuickAsyncNeverViolatesSafety does) so one fuzz input
			// cannot burn millions of steps.
			cfg.Budget = 30_000
		}
		res, err := SolveSetAgreement(cfg)
		again, againErr := SolveSetAgreement(cfg)
		if (err == nil) != (againErr == nil) || !reflect.DeepEqual(res, again) {
			t.Fatalf("cfg %+v: two runs differ: %+v (%v) vs %+v (%v)", cfg, res, err, again, againErr)
		}
		if err != nil {
			if !errors.Is(err, ErrNoTermination) {
				t.Fatalf("cfg %+v: %v", cfg, err)
			}
			if alg != AsyncAttempt {
				t.Fatalf("cfg %+v: unexpected non-termination: %v", cfg, err)
			}
			return
		}
		if len(res.Distinct) > res.K {
			t.Fatalf("cfg %+v: %d distinct decisions exceed k=%d", cfg, len(res.Distinct), res.K)
		}
	})
}

// FuzzExtractUpsilon fuzzes the Figure 3 reduction: the extracted output
// must satisfy the Υ^f specification, and two runs of one configuration must
// produce the identical extraction.
func FuzzExtractUpsilon(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(30))
	f.Add(uint8(2), uint8(1), uint8(1), uint8(2), uint8(80))
	f.Add(uint8(3), uint8(2), uint8(3), uint8(5), uint8(0))
	f.Fuzz(func(t *testing.T, b0, b1, b2, b3, b4 uint8) {
		dets := []Detector{Omega, OmegaN, OmegaF, StableEvPerfect}
		n := 3 + int(b0%4) // 3..6
		fRes := 2 + int(b1)%(n-2)
		det := dets[int(b2)%len(dets)]
		if det == OmegaN {
			fRes = n - 1 // Ωn extracts the wait-free Υ
		}
		crashAt := map[int]int64{}
		if b3%2 == 0 {
			crashAt[int(b3)%n] = int64(300 + 10*int(b4))
		}
		cfg := ExtractConfig{
			N: n, F: fRes, From: det,
			StabilizeAt: int64(b4) * 2,
			CrashAt:     crashAt,
			Seed:        int64(b0) ^ int64(b4)<<3,
			Budget:      30_000,
		}
		res, err := ExtractUpsilon(cfg)
		if err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		if again, err := ExtractUpsilon(cfg); err != nil || !reflect.DeepEqual(res, again) {
			t.Fatalf("cfg %+v: two runs differ: %+v vs %+v (%v)", cfg, res, again, err)
		}
		if res.LegalErr != nil || len(res.Stable) < n-fRes {
			t.Fatalf("cfg %+v: illegal extraction %+v", cfg, res)
		}
	})
}

func TestQuickTimingAssumptions(t *testing.T) {
	prop := func(raw [5]uint8) bool {
		n := 3 + int(raw[0]%3)
		proposals := make([]int64, n)
		for i := range proposals {
			proposals[i] = int64(100 + i)
		}
		crashAt := map[int]int64{}
		if raw[1]%2 == 0 {
			crashAt[int(raw[1])%n] = int64(200 + 10*int(raw[2]))
		}
		res, err := SolveWithTimingAssumptions(TimedConfig{
			N: n, Proposals: proposals, CrashAt: crashAt,
			GST:  400 + int64(raw[3])*8,
			Seed: int64(raw[4]),
		})
		if err != nil {
			t.Logf("n=%d: %v", n, err)
			return false
		}
		return len(res.Distinct) <= res.K
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
