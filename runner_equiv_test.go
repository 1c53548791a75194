package weakestfd_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"testing"

	"weakestfd"
	"weakestfd/internal/lab"
	"weakestfd/internal/lab/scenarios"
)

// Facade-level equivalence with the goroutine-per-process reference engine
// the simulator used to carry. Each test walks an unchanged grid of facade
// configurations and folds every case's JSON-encoded result and error kind
// into a sha256, in grid order; the expected digests were recorded while
// both engines still existed and returned identical results (the
// registers-only grid ran on the goroutine engine alone, the only one that
// drove the Afek snapshot then). The lab fingerprint closes the loop over
// every scenario family, the Theorem 1/5 adversary included.

// resultPin accumulates the grid digest of one equivalence test.
type resultPin struct {
	h     hash.Hash
	cases int
}

func newResultPin() *resultPin { return &resultPin{h: sha256.New()} }

func (p *resultPin) add(t *testing.T, res any, err error) {
	t.Helper()
	b, jerr := json.Marshal(res)
	if jerr != nil {
		t.Fatal(jerr)
	}
	kind := "ok"
	if errors.Is(err, weakestfd.ErrNoTermination) {
		kind = "notermination"
	} else if err != nil {
		kind = "error"
	}
	fmt.Fprintf(p.h, "%s|%s\n", b, kind)
	p.cases++
}

// check compares the digest with want once every case of the grid ran.
func (p *resultPin) check(t *testing.T, total int, want string) {
	t.Helper()
	if p.cases != total {
		t.Logf("ran %d of %d cases; digest not compared", p.cases, total)
		return
	}
	if got := hex.EncodeToString(p.h.Sum(nil)); got != want {
		t.Fatalf("grid digest changed:\n got  %s\n want %s", got, want)
	}
}

// solveGrid runs the set-agreement grid shared by the atomic and
// registers-only pins: 5 algorithms × 2 schedules × 3 seeds.
func solveGrid(t *testing.T, registersOnly bool, want string) {
	algorithms := []weakestfd.Algorithm{
		weakestfd.UpsilonFig1,
		weakestfd.UpsilonFFig2,
		weakestfd.OmegaNBaseline,
		weakestfd.OmegaConsensus,
		weakestfd.OmegaNBoosted,
	}
	pin := newResultPin()
	for _, alg := range algorithms {
		for _, sched := range []weakestfd.ScheduleKind{weakestfd.RandomSchedule, weakestfd.RoundRobinSchedule} {
			for seed := int64(0); seed < 3; seed++ {
				t.Run(fmt.Sprintf("%v/sched%d/seed%d", alg, sched, seed), func(t *testing.T) {
					res, err := weakestfd.SolveSetAgreement(weakestfd.SetAgreementConfig{
						N: 5, F: 2, Algorithm: alg,
						Proposals:     []int64{100, 101, 102, 103, 104},
						CrashAt:       map[int]int64{2: 25},
						StabilizeAt:   120,
						Seed:          seed,
						Schedule:      sched,
						RegistersOnly: registersOnly,
						Budget:        1 << 22,
					})
					pin.add(t, res, err)
				})
			}
		}
	}
	pin.check(t, 5*2*3, want)
}

func TestRunnerEquivalenceSolve(t *testing.T) {
	solveGrid(t, false, "0718186f50139c95a111db1241ca94cacd6d94557ddca0f9a0c43cb7feefb85e")
}

// TestRunnerEquivalenceRegistersOnly pins the Afek registers-only snapshot
// on the same grid.
func TestRunnerEquivalenceRegistersOnly(t *testing.T) {
	solveGrid(t, true, "dbe94d4ad3312a530a604002fd25a3cd60fdaaf3e7e379e6fb08b0b1065febb2")
}

func TestRunnerEquivalenceExtract(t *testing.T) {
	pin := newResultPin()
	for _, det := range []weakestfd.Detector{weakestfd.Omega, weakestfd.OmegaN, weakestfd.StableEvPerfect} {
		for seed := int64(0); seed < 2; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", det, seed), func(t *testing.T) {
				res, err := weakestfd.ExtractUpsilon(weakestfd.ExtractConfig{
					N: 5, From: det, StabilizeAt: 150,
					CrashAt: map[int]int64{1: 400},
					Seed:    seed, Budget: 30_000,
				})
				if err != nil {
					t.Fatal(err)
				}
				pin.add(t, res, err)
			})
		}
	}
	pin.check(t, 3*2, "d1052d025d0b1246e19247c1ce43739715daa9967a975615e21232938cd0ad24")
}

func TestRunnerEquivalenceCompose(t *testing.T) {
	pin := newResultPin()
	for _, det := range []weakestfd.Detector{weakestfd.Omega, weakestfd.OmegaN, weakestfd.StableEvPerfect} {
		t.Run(det.String(), func(t *testing.T) {
			res, err := weakestfd.SolveWithStableDetector(weakestfd.ComposeConfig{
				N: 4, From: det, Proposals: []int64{100, 101, 102, 103},
				CrashAt: map[int]int64{1: 60}, StabilizeAt: 100,
				Seed: 7, Budget: 1 << 22,
			})
			if err != nil {
				t.Fatal(err)
			}
			pin.add(t, res, err)
		})
	}
	pin.check(t, 3, "a44c21159e9c21111eb27d289e12a4bd2e423b99f96ded615069ea7d6628ad20")
}

func TestRunnerEquivalenceTiming(t *testing.T) {
	pin := newResultPin()
	for seed := int64(0); seed < 2; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			res, err := weakestfd.SolveWithTimingAssumptions(weakestfd.TimedConfig{
				N: 4, Proposals: []int64{100, 101, 102, 103},
				CrashAt: map[int]int64{1: 300},
				GST:     800, Bound: 8, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			pin.add(t, res, err)
		})
	}
	pin.check(t, 2, "7dbd3ec7fa553decdec1284f576a0a554128d090a48fc2efbf64441971731bdd")
}

// TestRunnerEquivalenceLabFingerprint pins the full scenario matrix (every
// family, the adversary's included) at two seeds on one worker: the same
// fingerprint `paperbench -seeds 2 -workers 1 -fingerprint` prints.
func TestRunnerEquivalenceLabFingerprint(t *testing.T) {
	scs, err := lab.ExpandAll(scenarios.All(2))
	if err != nil {
		t.Fatal(err)
	}
	rep := lab.Run(scs, lab.Options{Workers: 1})
	if rep.Failed != 0 {
		t.Fatalf("%d runs failed", rep.Failed)
	}
	const want = "d4bb6a62ddc250f030765bf69196e9e91954c8680d771e9ae49605a43e71f02a"
	if got := rep.Fingerprint(); got != want {
		t.Fatalf("lab fingerprint changed:\n got  %s\n want %s", got, want)
	}
}
