package weakestfd

import (
	"fmt"

	"weakestfd/internal/converge"
	"weakestfd/internal/core"
	"weakestfd/internal/sim"
)

// TimedConfig configures SolveWithTimingAssumptions: set agreement with no
// oracle at all — Υ is *implemented* from heartbeats and adaptive timeouts,
// valid under an eventually synchronous schedule (the paper's Section 1
// observation that timing assumptions are where failure information comes
// from).
type TimedConfig struct {
	// N is the number of processes.
	N int
	// Proposals are the input values, one per process.
	Proposals []int64
	// CrashAt maps process indices to crash times.
	CrashAt map[int]int64
	// GST is the global stabilization time of the partial-synchrony
	// schedule: before it, scheduling is arbitrary; after it, every live
	// process takes a step at least once every Bound steps. Default 1000.
	GST int64
	// Bound is the post-GST step bound. Default 8.
	Bound int64
	// Seed drives the pre-GST scheduling noise.
	Seed int64
	// Budget caps the run. Default 2^22.
	Budget int64
}

// heartbeatThreshold is the heartbeat monitor's initial patience, in
// observer steps; it doubles on every false suspicion.
const heartbeatThreshold = 4

// SolveWithTimingAssumptions solves (N−1)-set agreement using only timing
// assumptions: each process runs a heartbeat-based Υ implementation as one
// parallel task and the Figure 1 protocol as another, under an eventually
// synchronous schedule. No failure detector oracle is involved anywhere.
func SolveWithTimingAssumptions(cfg TimedConfig) (*SetAgreementResult, error) {
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
	gst := cfg.GST
	if gst == 0 {
		gst = 1_000
	}
	bound := cfg.Bound
	if bound == 0 {
		bound = 8
	}
	budget := cfg.Budget
	if budget == 0 {
		budget = 1 << 22
	}

	c := core.NewTimedComposed(cfg.N, heartbeatThreshold, converge.UseAtomic)
	proposals := proposalValues(cfg.Proposals)
	simCfg := sim.Config{
		Pattern:  pattern,
		Schedule: sim.EventuallySynchronous(sim.Time(gst), bound, cfg.Seed),
		Budget:   budget,
	}
	return solve(simCfg, sim.TaskMachines(c.MachineTaskSets(proposals)), c.K(), proposals)
}
