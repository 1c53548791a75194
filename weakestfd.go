// Package weakestfd is a faithful executable reproduction of
//
//	Guerraoui, Herlihy, Kuznetsov, Lynch, Newport:
//	"On the weakest failure detector ever" (PODC 2007;
//	Distributed Computing 21:353–366, 2009).
//
// It provides the failure detectors Υ and Υ^f, the register-based
// set-agreement protocols that use them (the paper's Figures 1 and 2), the
// generic extraction of Υ^f from any stable non-trivial failure detector
// (Figure 3 / Theorem 10), and the adversary constructions of Theorems 1
// and 5 — all running on a deterministic simulation of asynchronous
// crash-prone shared memory.
//
// This package is the high-level facade: plain-parameter entry points over
// the building blocks in internal/. The quickest route:
//
//	res, err := weakestfd.SolveSetAgreement(weakestfd.SetAgreementConfig{
//		N:         4,
//		Proposals: []int64{10, 20, 30, 40},
//		CrashAt:   map[int]int64{3: 50},
//		Seed:      1,
//	})
//
// which runs the Figure 1 protocol for four processes with one mid-run
// crash and returns every process's decision (at most N−1 distinct values,
// each of them proposed).
package weakestfd

import (
	"errors"
	"fmt"

	"weakestfd/internal/agreement"
	"weakestfd/internal/check"
	"weakestfd/internal/converge"
	"weakestfd/internal/core"
	"weakestfd/internal/fd"
	"weakestfd/internal/sim"
	"weakestfd/internal/trace"
)

// Algorithm selects which set-agreement algorithm to run.
type Algorithm int

const (
	// UpsilonFig1 is the paper's Figure 1: n−1-set agreement from Υ
	// (wait-free). The default.
	UpsilonFig1 Algorithm = iota
	// UpsilonFFig2 is the paper's Figure 2: f-set agreement from Υ^f in E_f.
	UpsilonFFig2
	// OmegaNBaseline is Neiger's Ωn-based n−1-set agreement (the stronger-
	// detector baseline of Corollary 3).
	OmegaNBaseline
	// OmegaConsensus is consensus from Ω and registers.
	OmegaConsensus
	// AsyncAttempt is the failure-detector-free attempt; it generally does
	// not terminate (the impossibility the paper circumvents).
	AsyncAttempt
	// OmegaNBoosted is consensus among N processes from (N−1)-process
	// consensus objects, registers and Ωn — Corollary 4's comparator task,
	// which needs strictly more failure information than set agreement.
	OmegaNBoosted
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case UpsilonFig1:
		return "fig1-upsilon"
	case UpsilonFFig2:
		return "fig2-upsilonf"
	case OmegaNBaseline:
		return "omegan-baseline"
	case OmegaConsensus:
		return "omega-consensus"
	case AsyncAttempt:
		return "async-attempt"
	case OmegaNBoosted:
		return "omegan-boosted-consensus"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ScheduleKind selects the asynchronous adversary driving a run.
type ScheduleKind int

const (
	// RandomSchedule picks uniformly among runnable processes (seeded).
	RandomSchedule ScheduleKind = iota
	// RoundRobinSchedule runs processes in lockstep — the adversarial
	// schedule that defeats lucky early convergence.
	RoundRobinSchedule
)

// SetAgreementConfig configures one set-agreement run.
type SetAgreementConfig struct {
	// N is the number of processes (the paper's n+1); 2 ≤ N ≤ 64.
	N int
	// F is the resilience for UpsilonFFig2 (1 ≤ F ≤ N−1). Ignored by the
	// other algorithms (Figure 1 is the wait-free case F = N−1).
	F int
	// Algorithm selects the protocol; zero value is Figure 1.
	Algorithm Algorithm
	// Proposals are the input values, one per process. len must be N.
	Proposals []int64
	// CrashAt maps 0-based process indices to crash times (in atomic
	// steps). Absent processes are correct.
	CrashAt map[int]int64
	// StabilizeAt is the failure detector's stabilization time (steps);
	// before it the oracle emits arbitrary noise. Default 0 (stable from
	// the start).
	StabilizeAt int64
	// Seed drives the oracle noise, the stable-value choice and the random
	// schedule. Runs are deterministic in (config, seed).
	Seed int64
	// Schedule selects the adversary; default RandomSchedule.
	Schedule ScheduleKind
	// RegistersOnly backs snapshots with the Afek et al. construction from
	// single-writer registers instead of one-step snapshot objects,
	// exercising the paper's "registers suffice" claim (at O(n²) step
	// cost).
	RegistersOnly bool
	// Budget caps the run length in steps. Default 2^21.
	Budget int64
	// Trace, when set, records every atomic step's shared-object accesses
	// (a detector query reads the detector's history object) and renders a
	// step-class summary into SetAgreementResult.Trace.
	Trace bool
}

// SetAgreementResult reports one set-agreement run.
type SetAgreementResult struct {
	// Decisions maps each deciding process index to its decision.
	Decisions map[int]int64
	// Distinct is the sorted set of distinct decided values.
	Distinct []int64
	// K is the agreement bound the algorithm guarantees (≤ K distinct).
	K int
	// Steps is the number of atomic steps the run took.
	Steps int64
	// Crashed lists the processes that crashed.
	Crashed []int
	// Trace is the rendered step summary (empty unless requested).
	Trace string
}

// ErrNoTermination is returned when a run's step budget is exhausted before
// every correct process decided. For AsyncAttempt under adversarial
// schedules this is the expected outcome.
var ErrNoTermination = errors.New("weakestfd: run did not terminate within budget")

// SolveSetAgreement runs one set-agreement instance and verifies the
// Termination / Agreement / Validity properties before returning.
func SolveSetAgreement(cfg SetAgreementConfig) (*SetAgreementResult, error) {
	if cfg.N < 2 || cfg.N > sim.MaxProcs {
		return nil, fmt.Errorf("weakestfd: N=%d out of range [2,%d]", cfg.N, sim.MaxProcs)
	}
	if len(cfg.Proposals) != cfg.N {
		return nil, fmt.Errorf("weakestfd: %d proposals for N=%d", len(cfg.Proposals), cfg.N)
	}
	pattern, err := patternOf(cfg.N, cfg.CrashAt)
	if err != nil {
		return nil, err
	}
	impl := converge.UseAtomic
	if cfg.RegistersOnly {
		impl = converge.UseAfek
	}
	budget := cfg.Budget
	if budget == 0 {
		budget = 1 << 21
	}
	proposals := proposalValues(cfg.Proposals)

	// machineOf builds process i's automaton; hist is the detector history
	// the algorithm queries (nil for AsyncAttempt), registered under hname
	// with a traced run's query seam.
	var (
		k         int
		machineOf func(i int) sim.StepMachine
		hist      sim.Oracle
		hname     string
	)
	ts := sim.Time(cfg.StabilizeAt)
	switch cfg.Algorithm {
	case UpsilonFig1:
		hist, hname = core.Upsilon(cfg.N).History(pattern, ts, cfg.Seed), "H(Υ)"
		g := core.NewFig1(cfg.N, hist, impl)
		k = g.K()
		machineOf = func(i int) sim.StepMachine { return g.Machine(proposals[i]) }
	case UpsilonFFig2:
		if cfg.F < 1 || cfg.F >= cfg.N {
			return nil, fmt.Errorf("weakestfd: F=%d out of range [1,%d]", cfg.F, cfg.N-1)
		}
		if !pattern.InEnvironment(cfg.F) {
			return nil, fmt.Errorf("weakestfd: %d crashes exceed F=%d (outside E_f)", pattern.NumFaulty(), cfg.F)
		}
		hist, hname = core.UpsilonF(cfg.N, cfg.F).History(pattern, ts, cfg.Seed), "H(Υf)"
		g := core.NewFig2(cfg.N, cfg.F, hist, impl)
		k = g.K()
		machineOf = func(i int) sim.StepMachine { return g.Machine(proposals[i]) }
	case OmegaNBaseline:
		hist, hname = fd.NewOmegaF(pattern, cfg.N-1, ts, cfg.Seed), "H(Ωn)"
		g := agreement.NewOmegaNSetAgreement(cfg.N, hist, impl)
		k = g.K()
		machineOf = func(i int) sim.StepMachine { return g.Machine(proposals[i]) }
	case OmegaConsensus:
		hist, hname = fd.NewOmega(pattern, ts, cfg.Seed), "H(Ω)"
		g := agreement.NewOmegaConsensus(cfg.N, hist, impl)
		k = 1
		machineOf = func(i int) sim.StepMachine { return g.Machine(proposals[i]) }
	case AsyncAttempt:
		g := agreement.NewAsyncAttempt(cfg.N, impl)
		k = cfg.N - 1
		machineOf = func(i int) sim.StepMachine { return g.Machine(proposals[i]) }
	case OmegaNBoosted:
		hist, hname = fd.NewOmegaF(pattern, cfg.N-1, ts, cfg.Seed), "H(Ωn)"
		g := agreement.NewBoostedConsensus(cfg.N, hist, impl)
		k = 1
		machineOf = func(i int) sim.StepMachine { return g.Machine(proposals[i]) }
	default:
		return nil, fmt.Errorf("weakestfd: unknown algorithm %v", cfg.Algorithm)
	}

	simCfg := sim.Config{
		Pattern:  pattern,
		Schedule: scheduleOf(cfg.Schedule, cfg.Seed),
		Budget:   budget,
	}
	if cfg.Trace {
		simCfg.AccessLog = sim.NewAccessLog()
		simCfg.Queries = sim.NewQuerySeam(simCfg.AccessLog)
		simCfg.Queries.Register(hname, hist)
	}
	machines := make([]sim.StepMachine, cfg.N)
	for i := range machines {
		machines[i] = machineOf(i)
	}
	res, err := solve(simCfg, machines, k, proposals)
	if err != nil {
		return nil, err
	}
	if cfg.Trace {
		res.Trace = trace.Summarize(simCfg.AccessLog, cfg.N).String()
	}
	return res, nil
}

// solve runs one process machine per proposal under cfg and checks the run
// against k-set agreement: the tail every set-agreement solver shares.
func solve(cfg sim.Config, machines []sim.StepMachine, k int, proposals []sim.Value) (*SetAgreementResult, error) {
	rep, err := sim.RunMachines(cfg, machines)
	if err != nil {
		if errors.Is(err, sim.ErrBudgetExhausted) {
			return nil, fmt.Errorf("%w: %v", ErrNoTermination, err)
		}
		return nil, err
	}
	if err := check.SetAgreement(rep, cfg.Pattern, k, proposals); err != nil {
		return nil, err
	}
	return newResult(rep, k), nil
}

func proposalValues(proposals []int64) []sim.Value {
	out := make([]sim.Value, len(proposals))
	for i, v := range proposals {
		out[i] = sim.Value(v)
	}
	return out
}

func newResult(rep *sim.Report, k int) *SetAgreementResult {
	res := &SetAgreementResult{
		Decisions: make(map[int]int64, len(rep.Decided)),
		K:         k,
		Steps:     rep.Steps,
	}
	for p, v := range rep.Decided {
		res.Decisions[int(p)] = int64(v)
	}
	// This is the lab summary path (every scenario run folds a result);
	// collect into stack scratch via the non-allocating variants.
	var vals [sim.MaxProcs]sim.Value
	for _, v := range rep.DecidedValuesAppend(vals[:0]) {
		res.Distinct = append(res.Distinct, int64(v))
	}
	var pids [sim.MaxProcs]sim.PID
	for _, p := range rep.Crashed.MembersAppend(pids[:0]) {
		res.Crashed = append(res.Crashed, int(p))
	}
	return res
}

func patternOf(n int, crashAt map[int]int64) (sim.Pattern, error) {
	if len(crashAt) >= n {
		return sim.Pattern{}, fmt.Errorf("weakestfd: all %d processes crash; at least one must be correct", n)
	}
	crashes := make(map[sim.PID]sim.Time, len(crashAt))
	for i, t := range crashAt {
		if i < 0 || i >= n {
			return sim.Pattern{}, fmt.Errorf("weakestfd: crash index %d out of range", i)
		}
		if t < 0 {
			return sim.Pattern{}, fmt.Errorf("weakestfd: negative crash time %d", t)
		}
		crashes[sim.PID(i)] = sim.Time(t)
	}
	return sim.CrashPattern(n, crashes), nil
}

func scheduleOf(kind ScheduleKind, seed int64) sim.Schedule {
	if kind == RoundRobinSchedule {
		return sim.RoundRobin()
	}
	return sim.NewRandom(seed)
}
