package fleet

import (
	"encoding/json"
	"fmt"

	"weakestfd/internal/explore"
	"weakestfd/internal/sim"
)

// Spec is the primitive, process-portable description of one sweep: every
// knob of explore.Config that shapes the configuration space or the
// per-configuration search, expressed in serializable terms (system by name,
// times as integers). The coordinator ships it to workers
// verbatim and stamps its Key into checkpoints, so both sides — and a
// resumed run — provably rebuild the identical job list.
type Spec struct {
	// System names the system under exploration (explore.NewSystem).
	System string `json:"system"`
	// N is the process count and F the resilience of the environment E_f
	// the sweep explores (explore.NewSystem); F = 0 means N−1.
	N int `json:"n"`
	F int `json:"f"`
	// The remaining fields mirror the explore.Config fields of the same
	// name; zero values take explore's defaults.
	NoHash        bool    `json:"no_hash,omitempty"`
	MaxStates     int     `json:"max_states,omitempty"`
	MaxDepth      int     `json:"max_depth,omitempty"`
	MaxRuns       int64   `json:"max_runs,omitempty"`
	Budget        int64   `json:"budget,omitempty"`
	CrashTimes    []int64 `json:"crash_times,omitempty"`
	SwitchBudget  int     `json:"switch_budget,omitempty"`
	FlipTimes     []int64 `json:"flip_times,omitempty"`
	MaxViolations int     `json:"max_violations,omitempty"`
	// Workers is the lab pool width per worker process. It shapes only how
	// fast a worker explores, never what it explores, so Key ignores it: a
	// checkpoint taken at one width resumes at any other.
	Workers int `json:"workers,omitempty"`
}

// Key is the canonical identity of the sweep this Spec describes — the
// JSON encoding with the space-neutral Workers field zeroed. Checkpoints
// record it and refuse to resume under a different key.
func (s Spec) Key() string {
	s.Workers = 0
	b, err := json.Marshal(s)
	if err != nil {
		// Spec is a struct of plain scalars and slices; Marshal cannot fail.
		panic(fmt.Sprintf("fleet: marshaling spec key: %v", err))
	}
	return string(b)
}

// Config instantiates the spec into an explore.Config, validating the
// named system. It refuses a full-depth horizon for systems that
// check termination-of-correct: that property presumes the fair tail after
// the horizon, and without one the search reaches runs that starve an
// enabled process until the budget runs out.
func (s Spec) Config() (explore.Config, error) {
	f := s.F
	if f == 0 {
		f = s.N - 1
	}
	sys, err := explore.NewSystem(s.System, s.N, f)
	if err != nil {
		return explore.Config{}, fmt.Errorf("fleet: %w", err)
	}
	cfg := explore.Config{
		System:        sys,
		NoHash:        s.NoHash,
		MaxStates:     s.MaxStates,
		MaxDepth:      s.MaxDepth,
		MaxRuns:       s.MaxRuns,
		Budget:        s.Budget,
		CrashTimes:    toTimes(s.CrashTimes),
		SwitchBudget:  s.SwitchBudget,
		FlipTimes:     toTimes(s.FlipTimes),
		MaxViolations: s.MaxViolations,
		Workers:       s.Workers,
	}
	if cfg.FullDepth() && checksTermination(sys) {
		return explore.Config{}, fmt.Errorf("fleet: %s checks termination-of-correct, which needs a fair tail after the branch horizon, "+
			"but -max-depth %d leaves none (0, or at least the step budget, means full depth): set -max-depth below -budget", s.System, s.MaxDepth)
	}
	return cfg, nil
}

// checksTermination reports whether sys checks termination-of-correct.
func checksTermination(sys explore.System) bool {
	for _, p := range sys.Properties() {
		if _, ok := p.(explore.TerminationOfCorrect); ok {
			return true
		}
	}
	return false
}

func toTimes(ts []int64) []sim.Time {
	if ts == nil {
		return nil
	}
	out := make([]sim.Time, len(ts))
	for i, t := range ts {
		out[i] = sim.Time(t)
	}
	return out
}
