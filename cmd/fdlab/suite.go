package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"weakestfd/internal/explore"
)

// runSuite is the `fdlab suite` subcommand: the standard bounded-exhaustive
// sweep over the real protocols at n ≤ 3 (explore.DefaultSweep), one table
// row per system. CI's explore-smoke job runs exactly this and fails the
// build on any violation.
//
// Exit status: 0 clean, 1 on property violations or a truncated sweep.
func runSuite(args []string) {
	fs := flag.NewFlagSet("suite", flag.ExitOnError)
	var (
		workers      = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		switchBudget = fs.Int("switch-budget", 0, "max pre-stabilization detector output switches per history (0 = stable-from-0 histories, the standard suite)")
		cpuprofile   = fs.String("cpuprofile", "", cpuProfileUsage)
		memprofile   = fs.String("memprofile", "", memProfileUsage)
	)
	_ = fs.Parse(args)
	validatePool(*workers, 1)
	if *switchBudget < 0 {
		log.Fatal("-switch-budget must be >= 0")
	}
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}
	err = printSuite(os.Stdout, *workers, *switchBudget)
	// Flush before log.Fatal — os.Exit runs no defers, and the exit-1
	// violation path is profiled too.
	stopProfiles()
	if err != nil {
		log.Fatal(err)
	}
}

// printSuite is runSuite's body: it sweeps every DefaultSweep system and
// writes the table to out. switchBudget > 0 additionally enumerates, per
// detector history, every schedule of at most that many pre-stabilization
// output switches (the unstable-history dimension; see explore.Config).
func printSuite(out io.Writer, workers, switchBudget int) error {
	var t table
	t.setHeader("system", "n", "f", "engine", "configs", "runs", "pruned", "joined", "max-steps", "settled", "violations", "ms")
	total := 0
	truncated := false
	var violations []*explore.Violation
	for _, cfg := range explore.DefaultSweep() {
		cfg.Workers = workers
		cfg.SwitchBudget = switchBudget
		res := explore.Explore(cfg)
		t.addRow(res.System, cfg.System.N(), cfg.System.MaxFaults(), res.Engine, res.Configs, res.Runs,
			res.Pruned, res.Joined, res.MaxSteps, res.SettledRuns, len(res.Violations), res.ElapsedMS)
		total += len(res.Violations)
		truncated = truncated || res.Truncated
		violations = append(violations, res.Violations...)
	}
	fmt.Fprintln(out, "## bounded-exhaustive schedule-space sweep (internal/explore)")
	fmt.Fprintln(out)
	t.print(out)
	for _, v := range violations {
		fmt.Fprintf(out, "  VIOLATION: %v\n", v)
	}
	if total > 0 {
		return fmt.Errorf("%d property violations across the sweep", total)
	}
	if truncated {
		return fmt.Errorf("sweep truncated by a per-configuration run cap: coverage incomplete")
	}
	fmt.Fprintln(out, "  * zero violations: every explored schedule satisfied every property")
	fmt.Fprintln(out, "  * runs counts executed schedules; pruned counts schedules the engine proved redundant without running them;")
	fmt.Fprintln(out, "    joined counts runs that stopped at the branch horizon and reused an already-executed tail (state hashing)")
	return nil
}
