package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sync"

	"weakestfd/internal/explore"
	"weakestfd/internal/sim"
)

// runExplore is the `fdlab explore` subcommand: a bounded-exhaustive sweep
// of one system, emitting replayable artifacts for every violation.
//
// Exit status: 0 clean, 1 on property violations, 3 when the sweep was
// truncated by -max-runs (the exhaustiveness claim is void, but nothing
// failed).
func runExplore(args []string) {
	fs := flag.NewFlagSet("explore", flag.ExitOnError)
	sf := addSweepFlags(fs)
	var (
		workers    = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		progress   = fs.Bool("progress", false, "print one line per finished configuration")
		outDir     = fs.String("out", ".", "directory for counterexample artifacts")
		cpuprofile = fs.String("cpuprofile", "", cpuProfileUsage)
		memprofile = fs.String("memprofile", "", memProfileUsage)
	)
	_ = fs.Parse(args)
	validatePool(*workers, 1)
	spec := sf.spec()
	cfg, err := spec.Config()
	if err != nil {
		log.Fatal(err)
	}
	cfg.Workers = *workers
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}
	if *progress {
		// Configurations finish concurrently on the lab pool and OnConfig
		// gives no mutual-exclusion guarantee, so the printer serializes
		// itself — interleaved progress lines are garbage in a terminal and
		// worse in a CI log.
		var mu sync.Mutex
		cfg.OnConfig = func(name string, runs int64) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(os.Stderr, "done %s (%d runs)\n", name, runs)
		}
	}
	// Flush the profiles before exitCode: os.Exit runs no defers, and the
	// violation (exit 1) and truncation (exit 3) paths are profiled too.
	code := reportSweep(explore.Explore(cfg), spec, *outDir)
	stopProfiles()
	exitCode(code)
}

// nextFlipOutput names what the history switches to at the given boundary:
// the next phase's output, or the stable set after the last flip.
func nextFlipOutput(a *explore.Artifact, until int64) string {
	for _, f := range a.OracleFlips {
		if f.Until > until {
			return pidSet(f.Out).String()
		}
	}
	return "stable " + pidSet(a.OracleStable).String()
}

// pidSet converts an artifact's 0-based PID list to a process set.
func pidSet(pids []int) sim.Set {
	set := sim.EmptySet
	for _, p := range pids {
		set = set.Add(sim.PID(p))
	}
	return set
}

// runReplay is the `fdlab replay` subcommand: it re-executes a
// counterexample artifact deterministically and reports whether the
// recorded violation reproduced.
//
// Exit status: 0 when the violation reproduced, 1 when it did not (or the
// artifact could not be loaded/replayed) — scripts and CI can gate on it.
func runReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	var (
		in    = fs.String("in", "", "counterexample artifact (from fdlab explore)")
		trace = fs.Bool("trace", false, "print every replayed step with its shared-object access set")
	)
	_ = fs.Parse(args)
	if *in == "" {
		log.Fatal("-in is required")
	}
	if code := replayArtifact(os.Stdout, *in, *trace); code != 0 {
		os.Exit(code)
	}
}

// replayArtifact is runReplay's testable body: it writes the replay report
// to out and returns the process exit code (0 reproduced, 1 not reproduced
// or unloadable).
func replayArtifact(out io.Writer, in string, trace bool) int {
	a, err := explore.ReadArtifact(in)
	if err != nil {
		fmt.Fprintf(out, "fdlab: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "replaying %s: system %s n=%d f=%d, oracle %s, %d scheduled steps, budget %d\n",
		in, a.System, a.N, a.F, a.OracleName, len(a.Schedule), a.Budget)
	for _, f := range a.OracleFlips {
		fmt.Fprintf(out, "detector flip: output %v until t=%d, then %s\n", pidSet(f.Out), f.Until, nextFlipOutput(a, f.Until))
	}
	fmt.Fprintf(out, "recorded violation (%s): %s\n", a.Property, a.Violation)

	// Grants are buffered and printed after the run: a step's access set is
	// recorded by the step itself, which executes after the scheduling hook
	// fires.
	type grant struct {
		idx     int
		t       sim.Time
		enabled sim.Set
		chosen  sim.PID
	}
	var grants []grant
	var hook func(idx int, t sim.Time, enabled sim.Set, chosen sim.PID)
	if trace {
		hook = func(idx int, t sim.Time, enabled sim.Set, chosen sim.PID) {
			grants = append(grants, grant{idx: idx, t: t, enabled: enabled, chosen: chosen})
		}
	}
	run, violation, err := a.Replay(hook)
	if err != nil {
		fmt.Fprintf(out, "fdlab: %v\n", err)
		return 1
	}
	if trace {
		accesses := run.Report.Accesses
		for _, g := range grants {
			line := fmt.Sprintf("  step %4d t=%-4d enabled=%-18v -> %v", g.idx, int64(g.t), g.enabled, g.chosen)
			if accesses != nil && g.idx < accesses.Steps() {
				_, accs := accesses.Step(g.idx)
				line += "  " + accesses.AccessString(accs)
			}
			fmt.Fprintln(out, line)
		}
	}
	fmt.Fprintf(out, "run: %d steps, decided %d, crashed %v\n",
		run.Report.Steps, len(run.Report.Decided), run.Report.Crashed)
	if violation == nil {
		fmt.Fprintln(out, "violation did NOT reproduce (artifact stale? code changed?)")
		return 1
	}
	fmt.Fprintf(out, "violation reproduced: %v\n", violation)
	// Classify the replayed run live to cross-check the recorded verdict.
	fp := explore.Classify(run, a.Property)
	fmt.Fprintf(out, "failure pattern: %s — %s\n", fp.Name, fp.Signature)
	fmt.Fprintf(out, "  %s\n", fp.Narrative)
	if a.PatternName != fp.Name {
		fmt.Fprintf(out, "WARNING: artifact records pattern %q but the replayed run classifies as %q (classifier drift?)\n",
			a.PatternName, fp.Name)
	}
	return 0
}
