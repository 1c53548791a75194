package weakestfd

import (
	"errors"
	"fmt"

	"weakestfd/internal/check"
	"weakestfd/internal/core"
	"weakestfd/internal/fd"
	"weakestfd/internal/sim"
)

// Detector names a stable failure detector the Figure 3 reduction can
// extract Υ^f from.
type Detector int

const (
	// Omega is the Chandra–Hadzilacos–Toueg leader oracle (range: one PID).
	Omega Detector = iota
	// OmegaN is Neiger's Ωn: sets of N−1 processes eventually containing a
	// correct one.
	OmegaN
	// OmegaF is the f-resilient family Ω^f with the size given by
	// ExtractConfig.F.
	OmegaF
	// StableEvPerfect eventually outputs exactly the faulty set.
	StableEvPerfect
)

// String implements fmt.Stringer.
func (d Detector) String() string {
	switch d {
	case Omega:
		return "omega"
	case OmegaN:
		return "omegaN"
	case OmegaF:
		return "omegaF"
	case StableEvPerfect:
		return "stable-evP"
	default:
		return fmt.Sprintf("Detector(%d)", int(d))
	}
}

// ExtractConfig configures one Figure 3 extraction run: Υ^f is emulated from
// the chosen stable detector using its φ_D map.
type ExtractConfig struct {
	// N is the number of processes.
	N int
	// F is the resilience (used for OmegaF's size and the Υ^f legality
	// check); default N−1 (the wait-free case, Υ).
	F int
	// From selects the source detector.
	From Detector
	// StabilizeAt is the source detector's stabilization time.
	StabilizeAt int64
	// CrashAt maps process indices to crash times.
	CrashAt map[int]int64
	// Seed drives noise, stable choices and the random schedule.
	Seed int64
	// Schedule selects the adversary; default RandomSchedule.
	Schedule ScheduleKind
	// BatchSlack, if positive, replaces φ_Ω's w(σ) = 0 with this value,
	// exercising the reduction's batch-counting path (Omega only).
	BatchSlack int
	// Budget is the run length in steps (extractions never terminate on
	// their own). Default 60000.
	Budget int64
}

// ExtractResult reports one extraction run.
type ExtractResult struct {
	// Stable is the emulated Υ^f output shared by all correct processes at
	// the end of the run (a set of 0-based process indices).
	Stable []int
	// StableFrom is the time after which no correct process's output
	// changed.
	StableFrom int64
	// Steps is the run length.
	Steps int64
	// LegalErr is nil iff Stable satisfies the Υ^f specification for the
	// run's failure pattern (it always should; exposed for reporting).
	LegalErr error
}

// ExtractUpsilon runs the paper's Figure 3 reduction: it extracts Υ^f from
// the chosen stable detector and verifies the extracted output satisfies
// the Υ^f specification.
func ExtractUpsilon(cfg ExtractConfig) (*ExtractResult, error) {
	if cfg.N < 2 || cfg.N > sim.MaxProcs {
		return nil, fmt.Errorf("weakestfd: N=%d out of range", cfg.N)
	}
	f := cfg.F
	if f == 0 {
		f = cfg.N - 1
	}
	if f < 1 || f >= cfg.N {
		return nil, fmt.Errorf("weakestfd: F=%d out of range [1,%d]", f, cfg.N-1)
	}
	pattern, err := patternOf(cfg.N, cfg.CrashAt)
	if err != nil {
		return nil, err
	}
	budget := cfg.Budget
	if budget == 0 {
		budget = 60_000
	}
	ts := sim.Time(cfg.StabilizeAt)

	var (
		oracle sim.Oracle
		phi    core.Phi
	)
	switch cfg.From {
	case Omega:
		oracle = fd.NewOmega(pattern, ts, cfg.Seed)
		phi = core.PhiOmega(cfg.N)
		if cfg.BatchSlack > 0 {
			phi = core.PhiOmegaSlack(cfg.N, cfg.BatchSlack)
		}
	case OmegaN:
		if f != cfg.N-1 {
			return nil, fmt.Errorf("weakestfd: OmegaN extracts the wait-free Υ (its complement sets have size 1); leave F unset, or use OmegaF for F=%d", f)
		}
		oracle = fd.NewOmegaF(pattern, cfg.N-1, ts, cfg.Seed)
		phi = core.PhiOmegaF(cfg.N)
	case OmegaF:
		oracle = fd.NewOmegaF(pattern, f, ts, cfg.Seed)
		phi = core.PhiOmegaF(cfg.N)
	case StableEvPerfect:
		oracle = fd.NewStableEvPerfect(pattern, ts, cfg.Seed)
		phi = core.PhiStableEvPerfect(cfg.N)
	default:
		return nil, fmt.Errorf("weakestfd: unknown detector %v", cfg.From)
	}

	ex := core.NewExtraction(cfg.N, oracle, phi)
	trace := check.NewOutputTrace[sim.Set](cfg.N, ex.OutputAt)
	simCfg := sim.Config{
		Pattern:  pattern,
		Schedule: scheduleOf(cfg.Schedule, cfg.Seed),
		Budget:   budget,
		StopWhen: trace.Hook(),
	}
	machines := make([]sim.StepMachine, cfg.N)
	for i := range machines {
		machines[i] = ex.Machine()
	}
	rep, runErr := sim.RunMachines(simCfg, machines)
	if runErr != nil && !errors.Is(runErr, sim.ErrBudgetExhausted) {
		return nil, runErr
	}

	stable, from, err := trace.StableFrom(pattern.Correct())
	if err != nil {
		return nil, fmt.Errorf("weakestfd: extracted outputs did not agree: %w", err)
	}
	spec := core.UpsilonF(cfg.N, f)
	if f == cfg.N-1 {
		spec = core.Upsilon(cfg.N)
	}
	legalErr := spec.LegalStable(pattern, stable)
	if legalErr != nil {
		return nil, fmt.Errorf("weakestfd: extracted output %v illegal: %w", stable, legalErr)
	}
	res := &ExtractResult{
		StableFrom: int64(from),
		Steps:      rep.Steps,
		LegalErr:   legalErr,
	}
	for _, p := range stable.Members() {
		res.Stable = append(res.Stable, int(p))
	}
	return res, nil
}

// FalsifyConfig configures a Theorem 1/5 adversary run against a candidate
// Ω^f-from-Υ^f extractor.
type FalsifyConfig struct {
	// N is the number of processes (≥ 3) and F the target detector size
	// (2 ≤ F ≤ N−1; F = N−1 is Theorem 1's Ωn case).
	N, F int
	// Candidate names the extractor: "complement", "staleness" or "hybrid".
	Candidate string
	// TargetSwitches is how many forced output changes to demonstrate.
	TargetSwitches int
	// Budget caps the run.
	Budget int64
}

// FalsifyResult reports how the adversary falsified the candidate.
type FalsifyResult struct {
	// Switches is the number of forced output transitions.
	Switches int
	// Stuck reports the candidate stopped moving; ViolationErr then holds
	// why its stable output is illegal in the completed run.
	Stuck        bool
	ViolationErr error
	// Steps is the run length.
	Steps int64
	// Falsified is true when the theorem's prediction held: the candidate
	// either switched TargetSwitches times or violated Ω^f.
	Falsified bool
}

// Falsify runs the Theorem 1/5 adversary against a named candidate
// extractor.
func Falsify(cfg FalsifyConfig) (*FalsifyResult, error) {
	var ext core.Extractor
	switch cfg.Candidate {
	case "complement":
		ext = core.ComplementExtractor()
	case "staleness":
		ext = core.StalenessExtractor()
	case "hybrid":
		ext = core.HybridExtractor()
	default:
		return nil, fmt.Errorf("weakestfd: unknown candidate %q (want complement|staleness|hybrid)", cfg.Candidate)
	}
	if cfg.N < 3 || cfg.F < 2 || cfg.F > cfg.N-1 {
		return nil, fmt.Errorf("weakestfd: adversary needs N ≥ 3 and 2 ≤ F ≤ N−1, got N=%d F=%d", cfg.N, cfg.F)
	}
	target := cfg.TargetSwitches
	if target == 0 {
		target = 20
	}
	res := core.RunAdversary(core.AdversaryConfig{
		N: cfg.N, F: cfg.F,
		Extractor:      ext,
		TargetSwitches: target,
		Budget:         cfg.Budget,
	})
	out := &FalsifyResult{
		Switches:  res.Switches,
		Stuck:     res.Stuck,
		Steps:     res.Steps,
		Falsified: res.Falsified(target),
	}
	if res.Violation != nil {
		out.ViolationErr = res.Violation.Err
	}
	return out, nil
}
