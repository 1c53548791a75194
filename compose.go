package weakestfd

import (
	"errors"
	"fmt"

	"weakestfd/internal/check"
	"weakestfd/internal/converge"
	"weakestfd/internal/core"
	"weakestfd/internal/fd"
	"weakestfd/internal/sim"
)

// ComposeConfig configures SolveWithStableDetector: set agreement solved
// with an arbitrary stable detector, routed through the paper's generic
// machinery (Figure 3 extraction composed with the Figure 1 protocol).
type ComposeConfig struct {
	// N is the number of processes.
	N int
	// From selects the stable source detector.
	From Detector
	// Proposals are the input values, one per process.
	Proposals []int64
	// CrashAt maps process indices to crash times.
	CrashAt map[int]int64
	// StabilizeAt is the source detector's stabilization time.
	StabilizeAt int64
	// Seed drives noise and the random schedule.
	Seed int64
	// Schedule selects the adversary; default RandomSchedule.
	Schedule ScheduleKind
	// Budget caps the run. Default 2^22 (the composition pays for both the
	// reduction's and the protocol's steps).
	Budget int64
}

// SolveWithStableDetector solves (N−1)-set agreement using the chosen
// stable detector through the generic reduction: each process runs the
// Figure 3 extraction as one parallel task and the Figure 1 protocol —
// querying the emulated Υ — as another. This is Theorem 10 made
// operational: *any* stable non-trivial detector solves set agreement, via
// machinery that knows nothing about the detector beyond its φ_D map.
func SolveWithStableDetector(cfg ComposeConfig) (*SetAgreementResult, error) {
	if cfg.N < 2 || cfg.N > sim.MaxProcs {
		return nil, fmt.Errorf("weakestfd: N=%d out of range", cfg.N)
	}
	if len(cfg.Proposals) != cfg.N {
		return nil, fmt.Errorf("weakestfd: %d proposals for N=%d", len(cfg.Proposals), cfg.N)
	}
	pattern, err := patternOf(cfg.N, cfg.CrashAt)
	if err != nil {
		return nil, err
	}
	budget := cfg.Budget
	if budget == 0 {
		budget = 1 << 22
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
	case OmegaN:
		oracle = fd.NewOmegaF(pattern, cfg.N-1, ts, cfg.Seed)
		phi = core.PhiOmegaF(cfg.N)
	case OmegaF:
		return nil, fmt.Errorf("weakestfd: OmegaF needs an explicit f; use OmegaN for the wait-free case")
	case StableEvPerfect:
		oracle = fd.NewStableEvPerfect(pattern, ts, cfg.Seed)
		phi = core.PhiStableEvPerfect(cfg.N)
	default:
		return nil, fmt.Errorf("weakestfd: unknown detector %v", cfg.From)
	}

	c := core.NewComposed(cfg.N, oracle, phi, converge.UseAtomic)
	proposals := make([]sim.Value, cfg.N)
	for i, v := range cfg.Proposals {
		proposals[i] = sim.Value(v)
	}
	simCfg := sim.Config{
		Pattern:  pattern,
		Schedule: scheduleOf(cfg.Schedule, cfg.Seed),
		Budget:   budget,
	}
	rep, runErr := sim.RunTaskMachines(simCfg, c.MachineTaskSets(proposals))
	if runErr != nil {
		if errors.Is(runErr, sim.ErrBudgetExhausted) {
			return nil, fmt.Errorf("%w: %v", ErrNoTermination, runErr)
		}
		return nil, runErr
	}
	if err := check.SetAgreement(rep, pattern, c.K(), proposals); err != nil {
		return nil, err
	}
	return newResult(rep, c.K()), nil
}
