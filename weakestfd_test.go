package weakestfd

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestSolveSetAgreementQuickstart(t *testing.T) {
	res, err := SolveSetAgreement(SetAgreementConfig{
		N:         4,
		Proposals: []int64{10, 20, 30, 40},
		CrashAt:   map[int]int64{3: 50},
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Distinct) > res.K || res.K != 3 {
		t.Fatalf("distinct=%v k=%d", res.Distinct, res.K)
	}
	for i := 0; i < 3; i++ {
		if _, ok := res.Decisions[i]; !ok {
			t.Fatalf("correct process %d missing decision", i)
		}
	}
}

func TestSolveSetAgreementAllAlgorithms(t *testing.T) {
	for _, alg := range []Algorithm{UpsilonFig1, UpsilonFFig2, OmegaNBaseline, OmegaConsensus, OmegaNBoosted} {
		t.Run(alg.String(), func(t *testing.T) {
			res, err := SolveSetAgreement(SetAgreementConfig{
				N:           5,
				F:           2,
				Algorithm:   alg,
				Proposals:   []int64{1, 2, 3, 4, 5},
				CrashAt:     map[int]int64{4: 5},
				StabilizeAt: 80,
				Seed:        7,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Distinct) > res.K {
				t.Fatalf("agreement: %v > k=%d", res.Distinct, res.K)
			}
			if len(res.Crashed) != 1 || res.Crashed[0] != 4 {
				t.Fatalf("crashed = %v", res.Crashed)
			}
			if _, ok := res.Decisions[4]; ok {
				t.Fatal("crashed process should not decide")
			}
		})
	}
}

func TestSolveSetAgreementAsyncLivelock(t *testing.T) {
	_, err := SolveSetAgreement(SetAgreementConfig{
		N:         4,
		Algorithm: AsyncAttempt,
		Proposals: []int64{1, 2, 3, 4},
		Schedule:  RoundRobinSchedule,
		Budget:    50_000,
	})
	if !errors.Is(err, ErrNoTermination) {
		t.Fatalf("want ErrNoTermination, got %v", err)
	}
}

func TestSolveSetAgreementRegistersOnly(t *testing.T) {
	res, err := SolveSetAgreement(SetAgreementConfig{
		N:             3,
		Proposals:     []int64{7, 8, 9},
		RegistersOnly: true,
		Seed:          3,
		Budget:        1 << 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Distinct) > 2 {
		t.Fatalf("distinct = %v", res.Distinct)
	}
}

// TestSolveSetAgreementTraceListsEveryProcess: the trace summary has a row
// for every process — including one that crashed before its first step —
// and tracing leaves the run's outcome unchanged.
func TestSolveSetAgreementTraceListsEveryProcess(t *testing.T) {
	cfg := SetAgreementConfig{N: 4, Proposals: []int64{100, 101, 102, 103}, CrashAt: map[int]int64{3: 0}}
	plain, err := SolveSetAgreement(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace = true
	traced, err := SolveSetAgreement(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{"  p1: ", "  p2: ", "  p3: ", "  p4: 0\n"} {
		if !strings.Contains(traced.Trace, row) {
			t.Errorf("trace lacks %q:\n%s", row, traced.Trace)
		}
	}
	traced.Trace = ""
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("tracing changed the run:\n plain:  %+v\n traced: %+v", plain, traced)
	}
}

func TestSolveSetAgreementValidation(t *testing.T) {
	cases := map[string]SetAgreementConfig{
		"small N":       {N: 1, Proposals: []int64{1}},
		"bad proposals": {N: 3, Proposals: []int64{1}},
		"all crash":     {N: 2, Proposals: []int64{1, 2}, CrashAt: map[int]int64{0: 1, 1: 1}},
		"bad crash idx": {N: 2, Proposals: []int64{1, 2}, CrashAt: map[int]int64{5: 1}},
		"neg crash":     {N: 2, Proposals: []int64{1, 2}, CrashAt: map[int]int64{0: -1}},
		"bad F":         {N: 3, F: 3, Algorithm: UpsilonFFig2, Proposals: []int64{1, 2, 3}},
		"outside Ef": {N: 4, F: 1, Algorithm: UpsilonFFig2, Proposals: []int64{1, 2, 3, 4},
			CrashAt: map[int]int64{0: 1, 1: 1}},
	}
	for name, cfg := range cases {
		if _, err := SolveSetAgreement(cfg); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestSolveSetAgreementDeterminism(t *testing.T) {
	cfg := SetAgreementConfig{
		N: 5, Proposals: []int64{1, 2, 3, 4, 5},
		CrashAt: map[int]int64{1: 40}, StabilizeAt: 120, Seed: 9,
	}
	a, err := SolveSetAgreement(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveSetAgreement(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Steps != b.Steps {
		t.Fatalf("steps differ: %d vs %d", a.Steps, b.Steps)
	}
	for p, v := range a.Decisions {
		if b.Decisions[p] != v {
			t.Fatalf("decisions differ at %d", p)
		}
	}
}

func TestExtractUpsilonAllDetectors(t *testing.T) {
	for _, d := range []Detector{Omega, OmegaN, OmegaF, StableEvPerfect} {
		t.Run(d.String(), func(t *testing.T) {
			res, err := ExtractUpsilon(ExtractConfig{
				N: 4, F: 3,
				From:        d,
				StabilizeAt: 100,
				Seed:        2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Stable) == 0 {
				t.Fatal("empty extracted set")
			}
			if res.LegalErr != nil {
				t.Fatalf("illegal: %v", res.LegalErr)
			}
		})
	}
}

func TestExtractUpsilonWithSlackAndCrash(t *testing.T) {
	res, err := ExtractUpsilon(ExtractConfig{
		N: 4, From: Omega, BatchSlack: 2,
		CrashAt: map[int]int64{2: 400},
		Seed:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.StableFrom >= res.Steps {
		t.Fatalf("never stabilized: from=%d steps=%d", res.StableFrom, res.Steps)
	}
}

func TestExtractUpsilonValidation(t *testing.T) {
	if _, err := ExtractUpsilon(ExtractConfig{N: 1}); err == nil {
		t.Error("expected error for N=1")
	}
	if _, err := ExtractUpsilon(ExtractConfig{N: 4, From: Detector(99)}); err == nil {
		t.Error("expected error for unknown detector")
	}
}

func TestFalsifyCandidates(t *testing.T) {
	for _, cand := range []string{"complement", "staleness", "hybrid"} {
		t.Run(cand, func(t *testing.T) {
			res, err := Falsify(FalsifyConfig{N: 4, F: 3, Candidate: cand, TargetSwitches: 10})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Falsified {
				t.Fatalf("candidate %s not falsified: %+v", cand, res)
			}
		})
	}
}

func TestFalsifyValidation(t *testing.T) {
	if _, err := Falsify(FalsifyConfig{N: 4, F: 3, Candidate: "nope"}); err == nil {
		t.Error("expected unknown-candidate error")
	}
	if _, err := Falsify(FalsifyConfig{N: 2, F: 2, Candidate: "complement"}); err == nil {
		t.Error("expected range error")
	}
}

func TestAlgorithmStrings(t *testing.T) {
	names := map[Algorithm]string{
		UpsilonFig1: "fig1-upsilon", UpsilonFFig2: "fig2-upsilonf",
		OmegaNBaseline: "omegan-baseline", OmegaConsensus: "omega-consensus",
		AsyncAttempt: "async-attempt", OmegaNBoosted: "omegan-boosted-consensus",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d → %q, want %q", int(a), a.String(), want)
		}
	}
}
