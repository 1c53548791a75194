// Package scenarios declares the repository's experiment families as lab
// scenario matrices: each family is the cartesian product of named axes
// (detector class × adversary schedule × crash pattern × system size), with
// every cell running through the weakestfd facade and reporting metrics
// (simulated steps, distinct decisions, extraction stabilization lag,
// forced adversary switches) for the lab engine to aggregate.
//
// The seed families mirror the paper's experiment tables: fig1 (Theorem 2),
// fig2 (Theorem 6), extract (Theorem 10), compose (Figure 3 ∘ Figure 1) and
// timing (Section 1). Beyond the seed, waves sweeps staggered-crash
// cascades, late sweeps very-late-stabilizing detectors against both Υ and
// the stronger-detector baselines, and adversary sweeps the Theorem 1/5
// constructions from internal/core/adversary.go across candidates and
// resilience levels.
package scenarios

import (
	"fmt"
	"strings"

	"weakestfd"
	"weakestfd/internal/lab"
)

// defaultBudget caps each simulated run (in atomic steps).
const defaultBudget = 1 << 22

// proposals returns n distinct input values.
func proposals(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(100 + i)
	}
	return out
}

// scheduleAxis is the adversary-schedule axis shared by the solve families.
func scheduleAxis() lab.Axis {
	return lab.Axis{Name: "schedule", Values: []lab.Value{
		{Name: "random", V: weakestfd.RandomSchedule},
		{Name: "lockstep", V: weakestfd.RoundRobinSchedule},
	}}
}

// solveMetrics folds a set-agreement result into lab metrics.
func solveMetrics(res *weakestfd.SetAgreementResult) lab.Metrics {
	return lab.Metrics{
		"steps":    float64(res.Steps),
		"distinct": float64(len(res.Distinct)),
		"decided":  float64(len(res.Decisions)),
	}
}

// Fig1 sweeps the paper's Figure 1 protocol (n-set agreement from Υ,
// Theorem 2) over system size × crash pattern × Υ stabilization time ×
// schedule.
func Fig1(seeds int) lab.Matrix {
	return lab.Matrix{
		Family: "fig1",
		Axes: []lab.Axis{
			lab.Vals("n", 3, 5, 7, 9),
			patternAxis(FailureFree(), OneCrash(), WaitFree()),
			lab.Vals("stabilize", int64(0), int64(200), int64(2000)),
			scheduleAxis(),
		},
		Seeds: seeds,
		Build: func(pt lab.Point) lab.RunFunc {
			n := pt.Int("n")
			crash := pt.Get("pattern").(PatternSpec).Build(n)
			ts := pt.Int64("stabilize")
			sched := pt.Get("schedule").(weakestfd.ScheduleKind)
			return func(seed int64) (lab.Metrics, error) {
				res, err := weakestfd.SolveSetAgreement(weakestfd.SetAgreementConfig{
					N: n, Proposals: proposals(n), CrashAt: crash,
					StabilizeAt: ts, Seed: seed, Schedule: sched,
					Budget: defaultBudget,
				})
				if err != nil {
					return nil, err
				}
				return solveMetrics(res), nil
			}
		},
	}
}

// Fig2 sweeps the Figure 2 protocol (f-set agreement from Υ^f in E_f,
// Theorem 6) over the resilience grid.
func Fig2(seeds int) lab.Matrix {
	return lab.Matrix{
		Family: "fig2",
		Axes: []lab.Axis{
			lab.Vals("n", 4, 6, 8),
			lab.Vals("f", 1, 2, 3, 5, 7),
			{Name: "crashes", Values: []lab.Value{
				{Name: "none", V: 0},
				{Name: "max", V: 1},
			}},
		},
		Seeds: seeds,
		Skip: func(pt lab.Point) bool {
			return pt.Int("f") >= pt.Int("n")
		},
		Build: func(pt lab.Point) lab.RunFunc {
			n, f := pt.Int("n"), pt.Int("f")
			crashAt := map[int]int64{}
			if pt.Int("crashes") == 1 {
				for i := 0; i < f; i++ {
					crashAt[i] = int64(13 * (i + 1))
				}
			}
			return func(seed int64) (lab.Metrics, error) {
				res, err := weakestfd.SolveSetAgreement(weakestfd.SetAgreementConfig{
					N: n, F: f, Algorithm: weakestfd.UpsilonFFig2,
					Proposals: proposals(n), CrashAt: crashAt,
					StabilizeAt: 150, Seed: seed, Budget: defaultBudget,
				})
				if err != nil {
					return nil, err
				}
				return solveMetrics(res), nil
			}
		},
	}
}

// detectorAxis names the stable source detectors of the Figure 3 reduction.
// The payload is the (detector, resilience) pair ExtractUpsilon expects
// (OmegaF needs an explicit f; the rest extract the wait-free Υ).
type detectorChoice struct {
	det weakestfd.Detector
	f   int
}

func detectorAxis(withOmegaF bool) lab.Axis {
	ax := lab.Axis{Name: "source", Values: []lab.Value{
		{Name: "omega", V: detectorChoice{weakestfd.Omega, 0}},
		{Name: "omegaN", V: detectorChoice{weakestfd.OmegaN, 0}},
		{Name: "stable-evP", V: detectorChoice{weakestfd.StableEvPerfect, 0}},
	}}
	if withOmegaF {
		ax.Values = append(ax.Values, lab.Value{Name: "omegaF-f2", V: detectorChoice{weakestfd.OmegaF, 2}})
	}
	return ax
}

// Extraction sweeps the Figure 3 reduction (Theorem 10): Υ^f extracted from
// each stable detector, measuring the extraction's stabilization lag.
func Extraction(seeds int) lab.Matrix {
	const n = 5
	return lab.Matrix{
		Family: "extract",
		Axes: []lab.Axis{
			detectorAxis(true),
			patternAxis(FailureFree(), OneCrash()),
		},
		Seeds: seeds,
		Build: func(pt lab.Point) lab.RunFunc {
			choice := pt.Get("source").(detectorChoice)
			crash := pt.Get("pattern").(PatternSpec).Build(n)
			return func(seed int64) (lab.Metrics, error) {
				res, err := weakestfd.ExtractUpsilon(weakestfd.ExtractConfig{
					N: n, F: choice.f, From: choice.det,
					StabilizeAt: 150, CrashAt: crash,
					Seed: seed, Budget: 80_000,
				})
				if err != nil {
					return nil, err
				}
				return lab.Metrics{
					"stable-from": float64(res.StableFrom),
					"lag":         float64(res.StableFrom - 150),
					"stable-size": float64(len(res.Stable)),
					"steps":       float64(res.Steps),
				}, nil
			}
		},
	}
}

// Compose sweeps the full composition (Figure 3 ∘ Figure 1): set agreement
// solved through the generic reduction from each stable detector.
func Compose(seeds int) lab.Matrix {
	const n = 5
	return lab.Matrix{
		Family: "compose",
		Axes: []lab.Axis{
			detectorAxis(false),
			patternAxis(FailureFree(), OneCrash()),
		},
		Seeds: seeds,
		Build: func(pt lab.Point) lab.RunFunc {
			choice := pt.Get("source").(detectorChoice)
			crash := pt.Get("pattern").(PatternSpec).Build(n)
			return func(seed int64) (lab.Metrics, error) {
				res, err := weakestfd.SolveWithStableDetector(weakestfd.ComposeConfig{
					N: n, From: choice.det, Proposals: proposals(n),
					CrashAt: crash, StabilizeAt: 120, Seed: seed,
					Budget: defaultBudget,
				})
				if err != nil {
					return nil, err
				}
				return solveMetrics(res), nil
			}
		},
	}
}

// Timing sweeps the oracle-free implementation (Section 1): Υ built from
// heartbeats under partial synchrony, across stabilization points and
// post-GST bounds.
func Timing(seeds int) lab.Matrix {
	const n = 5
	return lab.Matrix{
		Family: "timing",
		Axes: []lab.Axis{
			lab.Vals("gst", int64(500), int64(2000)),
			lab.Vals("bound", int64(4), int64(16)),
			patternAxis(FailureFree(), OneCrash()),
		},
		Seeds: seeds,
		Build: func(pt lab.Point) lab.RunFunc {
			gst := pt.Int64("gst")
			bound := pt.Int64("bound")
			crash := pt.Get("pattern").(PatternSpec).Build(n)
			return func(seed int64) (lab.Metrics, error) {
				res, err := weakestfd.SolveWithTimingAssumptions(weakestfd.TimedConfig{
					N: n, Proposals: proposals(n), CrashAt: crash,
					GST: gst, Bound: bound, Seed: seed, Budget: defaultBudget,
				})
				if err != nil {
					return nil, err
				}
				return solveMetrics(res), nil
			}
		},
	}
}

// Waves is a new family beyond the seed's: staggered-crash cascades. The
// processes other than p0 crash in waves of a given size, one wave per gap,
// so the failure pattern keeps shifting while Figure 1 runs — slow cascades
// with wide gaps force repeated re-convergence.
func Waves(seeds int) lab.Matrix {
	return lab.Matrix{
		Family: "waves",
		Axes: []lab.Axis{
			lab.Vals("n", 6, 10),
			lab.Vals("wave", 1, 2, 3),
			lab.Vals("gap", int64(10), int64(40)),
		},
		Seeds: seeds,
		Build: func(pt lab.Point) lab.RunFunc {
			n := pt.Int("n")
			crash := Wave(pt.Int("wave"), pt.Int64("gap"))(n)
			return func(seed int64) (lab.Metrics, error) {
				res, err := weakestfd.SolveSetAgreement(weakestfd.SetAgreementConfig{
					N: n, Proposals: proposals(n), CrashAt: crash,
					StabilizeAt: 300, Seed: seed, Budget: defaultBudget,
				})
				if err != nil {
					return nil, err
				}
				m := solveMetrics(res)
				m["crashed"] = float64(len(res.Crashed))
				return m, nil
			}
		},
	}
}

// Late is a new family beyond the seed's: very-late-stabilizing detectors.
// It sweeps the oracle's noise horizon up to 20000 steps for Υ (Figure 1)
// against the stronger-detector baselines on the same task, under both
// schedules. The facade's pre-stabilization noise is benign (seeded
// arbitrary output, not worst-case), so runs typically decide before the
// horizon — the family pins that down across algorithms; the conditional
// post-stabilize-steps metric flags the runs that did outlast it. The
// adversarial counterpart (worst-case legal noise) lives in the legacy E10b
// table.
func Late(seeds int) lab.Matrix {
	const n = 5
	algorithms := lab.Axis{Name: "algorithm", Values: []lab.Value{
		{Name: "fig1-upsilon", V: weakestfd.UpsilonFig1},
		{Name: "omegan-baseline", V: weakestfd.OmegaNBaseline},
		{Name: "omega-consensus", V: weakestfd.OmegaConsensus},
	}}
	return lab.Matrix{
		Family: "late",
		Axes: []lab.Axis{
			algorithms,
			lab.Vals("stabilize", int64(0), int64(1000), int64(5000), int64(20000)),
			scheduleAxis(),
		},
		Seeds: seeds,
		Build: func(pt lab.Point) lab.RunFunc {
			alg := pt.Get("algorithm").(weakestfd.Algorithm)
			ts := pt.Int64("stabilize")
			sched := pt.Get("schedule").(weakestfd.ScheduleKind)
			return func(seed int64) (lab.Metrics, error) {
				res, err := weakestfd.SolveSetAgreement(weakestfd.SetAgreementConfig{
					N: n, Algorithm: alg, Proposals: proposals(n),
					CrashAt: map[int]int64{2: 30}, StabilizeAt: ts,
					Seed: seed, Schedule: sched, Budget: 1 << 23,
				})
				if err != nil {
					return nil, err
				}
				m := solveMetrics(res)
				if lag := res.Steps - ts; lag > 0 {
					m["post-stabilize-steps"] = float64(lag)
				}
				return m, nil
			}
		},
	}
}

// Adversary is a new family beyond the seed's sweep loops: the Theorem 1/5
// constructions from internal/core/adversary.go as a scenario matrix —
// every candidate Ω^f-from-Υ^f extractor against the adversarial schedule,
// across system sizes and resilience levels. Metrics: forced output
// switches, run length, and whether the candidate was falsified (it always
// should be; a 0 in the falsified column is a reproduction failure).
func Adversary() lab.Matrix {
	return lab.Matrix{
		Family: "adversary",
		Axes: []lab.Axis{
			lab.Vals("candidate", "complement", "staleness", "hybrid"),
			lab.Vals("n", 4, 6),
			{Name: "resilience", Values: []lab.Value{
				{Name: "wait-free", V: -1},
				{Name: "f2", V: 2},
			}},
		},
		// The adversary is deterministic (it takes no seed): one run per cell.
		Seeds: 1,
		Build: func(pt lab.Point) lab.RunFunc {
			n := pt.Int("n")
			f := pt.Int("resilience")
			if f < 0 {
				f = n - 1
			}
			cand := pt.Get("candidate").(string)
			return func(int64) (lab.Metrics, error) {
				res, err := weakestfd.Falsify(weakestfd.FalsifyConfig{
					N: n, F: f, Candidate: cand,
					TargetSwitches: 20, Budget: defaultBudget,
				})
				if err != nil {
					return nil, err
				}
				m := lab.Metrics{
					"switches":  float64(res.Switches),
					"steps":     float64(res.Steps),
					"falsified": b2f(res.Falsified),
					"stuck":     b2f(res.Stuck),
				}
				if !res.Falsified {
					return m, fmt.Errorf("candidate %s at n=%d f=%d not falsified", cand, n, f)
				}
				return m, nil
			}
		},
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// All returns the full scenario matrix set: the seed families plus the
// three new ones. `fdlab matrix` runs this by default.
func All(seeds int) []lab.Matrix {
	return []lab.Matrix{
		Fig1(seeds),
		Fig2(seeds),
		Extraction(seeds),
		Compose(seeds),
		Timing(seeds),
		Waves(seeds),
		Late(seeds),
		Adversary(),
	}
}

// Select resolves a command-line family filter: the full matrix set when
// family is empty, the single named family otherwise.
func Select(family string, seeds int) ([]lab.Matrix, error) {
	if family == "" {
		return All(seeds), nil
	}
	m, ok := ByFamily(family, seeds)
	if !ok {
		return nil, fmt.Errorf("unknown scenario family %q (have: %s)",
			family, strings.Join(FamilyNames(), ", "))
	}
	return []lab.Matrix{m}, nil
}

// ByFamily returns the named family's matrix (case-insensitively), or false.
func ByFamily(name string, seeds int) (lab.Matrix, bool) {
	for _, m := range All(seeds) {
		if strings.EqualFold(m.Family, name) {
			return m, true
		}
	}
	return lab.Matrix{}, false
}

// FamilyNames lists the declared families in matrix order.
func FamilyNames() []string {
	var out []string
	for _, m := range All(1) {
		out = append(out, m.Family)
	}
	return out
}

// Quick returns a trimmed matrix set that exercises every code path in a
// few seconds — used by tests and benchmarks.
func Quick(seeds int) []lab.Matrix {
	fig1 := Fig1(seeds)
	fig1.Axes = []lab.Axis{
		lab.Vals("n", 3, 4),
		patternAxis(FailureFree(), OneCrash()),
		lab.Vals("stabilize", int64(0), int64(150)),
		scheduleAxis(),
	}
	extract := Extraction(seeds)
	extract.Axes = []lab.Axis{
		detectorAxis(false),
		patternAxis(FailureFree()),
	}
	return []lab.Matrix{fig1, extract}
}
