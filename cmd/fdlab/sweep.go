package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"weakestfd/internal/explore"
	"weakestfd/internal/fleet"
)

// sweepFlags is the sweep-shaping flag set shared by `fdlab explore` and
// `fdlab fleet`: everything that defines the configuration space and the
// per-configuration search, i.e. exactly the fields of fleet.Spec. The
// execution-shaping flags (workers, procs, checkpoint, out) stay with each
// subcommand.
type sweepFlags struct {
	system       *string
	n            *int
	f            *int
	noHash       *bool
	maxStates    *int
	maxDepth     *int
	maxRuns      *int64
	budget       *int64
	crashTimes   *string
	switchBudget *int
	flipTimes    *string
	maxViol      *int
}

func addSweepFlags(fs *flag.FlagSet) *sweepFlags {
	return &sweepFlags{
		system:       fs.String("system", "fig1", "system under exploration: "+strings.Join(explore.SystemNames(), "|")),
		n:            fs.Int("n", 3, "number of processes (2..5)"),
		f:            fs.Int("f", 0, "resilience: the sweep explores E_f, crash patterns with at most f crashes, and fig2 solves f-set agreement (default n-1)"),
		noHash:       fs.Bool("no-hash", false, "disable the state-hash join layer (pure source-DPOR)"),
		maxStates:    fs.Int("max-states", 0, "cap the join cache entries per configuration (0 = default 16384)"),
		maxDepth:     fs.Int("max-depth", 0, "branch-depth horizon; runs finish under a fair round-robin tail past it (0 = the step budget: full depth, no fair tail, refused for systems that check termination-of-correct)"),
		maxRuns:      fs.Int64("max-runs", 0, "cap runs per configuration, 0 = unlimited (hitting it voids exhaustiveness and exits 3)"),
		budget:       fs.Int64("budget", 4096, "step budget per run"),
		crashTimes:   fs.String("crash-times", "0,3", "crash-time grid, comma-separated"),
		switchBudget: fs.Int("switch-budget", 0, "max pre-stabilization output switches per detector history (0 = stable-from-0 histories only)"),
		flipTimes:    fs.String("flip-times", "2,14", "flip-time grid for -switch-budget > 0, comma-separated"),
		maxViol:      fs.Int("max-violations", 4, "stop after this many distinct violations (per worker process under fdlab fleet)"),
	}
}

// spec validates the parsed flags and builds the fleet.Spec they describe,
// exiting fatally on any inconsistency.
func (sf *sweepFlags) spec() fleet.Spec {
	if *sf.n < 2 || *sf.n > 5 {
		log.Fatalf("-n %d out of the explorable range [2,5] (the schedule space explodes beyond n=5)", *sf.n)
	}
	if *sf.budget <= 0 {
		log.Fatalf("-budget must be positive, got %d", *sf.budget)
	}
	if *sf.maxDepth < 0 || *sf.maxRuns < 0 || *sf.maxStates < 0 {
		log.Fatalf("-max-depth, -max-runs and -max-states must be non-negative (got %d, %d, %d)", *sf.maxDepth, *sf.maxRuns, *sf.maxStates)
	}
	if *sf.switchBudget < 0 {
		log.Fatalf("-switch-budget must be >= 0, got %d", *sf.switchBudget)
	}
	if *sf.maxViol <= 0 {
		log.Fatalf("-max-violations must be >= 1, got %d", *sf.maxViol)
	}
	ff := *sf.f
	if ff == 0 {
		ff = *sf.n - 1
	}
	if ff < 1 || ff > *sf.n-1 {
		log.Fatalf("-f %d out of range [1,%d] for n=%d", *sf.f, *sf.n-1, *sf.n)
	}
	grid, err := parseTimes("-crash-times", *sf.crashTimes)
	if err != nil {
		log.Fatal(err)
	}
	fgrid, err := parseTimes("-flip-times", *sf.flipTimes)
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range fgrid {
		if t < 2 {
			log.Fatalf("-flip-times entries must be >= 2 (a phase ending at time %d covers no step: the first step runs at t=1, and a phase's output applies to t < its end time), got %d", t, t)
		}
	}
	return fleet.Spec{
		System:        *sf.system,
		N:             *sf.n,
		F:             ff,
		NoHash:        *sf.noHash,
		MaxStates:     *sf.maxStates,
		MaxDepth:      *sf.maxDepth,
		MaxRuns:       *sf.maxRuns,
		Budget:        *sf.budget,
		CrashTimes:    grid,
		SwitchBudget:  *sf.switchBudget,
		FlipTimes:     fgrid,
		MaxViolations: *sf.maxViol,
	}
}

// reportSweep prints a completed sweep's summary — the shared tail of
// `fdlab explore` and `fdlab fleet` — writes counterexample artifacts to
// outDir, and returns the process exit code: 0 clean, 1 on violations, 3
// truncated by -max-runs.
func reportSweep(res *explore.Result, spec fleet.Spec, outDir string) int {
	fmt.Printf("explored %s (n=%d, f=%d, engine=%s, switch-budget=%d): %d configurations, %d schedules executed, %d pruned as redundant",
		res.System, spec.N, spec.F, res.Engine, spec.SwitchBudget, res.Configs, res.Runs, res.Pruned)
	if res.Joined > 0 {
		fmt.Printf(", %d joined at the horizon", res.Joined)
	}
	fmt.Printf(", longest run %d steps", res.MaxSteps)
	if res.SettledRuns > 0 {
		fmt.Printf(", %d settled", res.SettledRuns)
	}
	fmt.Printf(", %dms\n", res.ElapsedMS)
	if res.Configs == 0 || res.Runs == 0 {
		log.Fatal("empty sweep: no configurations were explored (check -n/-f/-crash-times)")
	}
	// Bound-hit reporting: the three bounds cut coverage in different ways
	// and call for different remediations, so each one names itself.
	if res.DepthLimited {
		fmt.Printf("note: runs went past the -max-depth %d branch horizon: exhaustive up to commutativity over every %d-step prefix, fair-tail beyond (raise -max-depth to push the claim deeper)\n",
			spec.MaxDepth, spec.MaxDepth)
	}
	if res.StateCapped {
		fmt.Println("note: the state-hash join cache hit -max-states and stopped admitting new states: coverage is unaffected, but tail sharing degraded (raise -max-states or add memory to speed the sweep up)")
	}
	if len(res.Violations) == 0 {
		if res.Truncated {
			fmt.Println("no property violations, but the sweep was TRUNCATED by -max-runs: configurations stopped mid-search, coverage is incomplete (raise -max-runs to restore the exhaustiveness claim)")
			return 3
		}
		fmt.Println("no property violations")
		return 0
	}
	for i, v := range res.Violations {
		fmt.Printf("VIOLATION: %v\n", v)
		path := filepath.Join(outDir, fmt.Sprintf("counterexample-%s-%d.json", res.System, i+1))
		if err := v.Artifact.WriteFile(path); err != nil {
			log.Fatalf("writing %s: %v", path, err)
		}
		fmt.Printf("  replay with: fdlab replay -in %s\n", path)
	}
	return 1
}

// exitCode applies reportSweep's verdict to the process.
func exitCode(code int) {
	if code != 0 {
		os.Exit(code)
	}
}
