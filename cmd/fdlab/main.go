// Command fdlab explores the failure detector reductions of the paper:
//
//	fdlab extract   — Figure 3: extract Υ^f from a stable detector
//	fdlab falsify   — Theorems 1/5: the adversary against Ω^f extractors
//	fdlab matrix    — run scenario families through the internal/lab engine
//	fdlab explore   — bounded-exhaustive schedule-space sweep with property
//	                  checking and counterexample shrinking
//	fdlab fleet     — the same sweep sharded across worker processes, with a
//	                  resumable checkpoint (fleet-worker is its hidden
//	                  subprocess entry point)
//	fdlab replay    — re-execute an emitted counterexample step by step
//
// Examples:
//
//	fdlab extract -n 5 -from omega -stabilize 200 -crash 2:500
//	fdlab extract -n 5 -from omegaF -f 2 -seed 3
//	fdlab falsify -n 5 -f 4 -candidate staleness -switches 30
//	fdlab matrix -family waves -seeds 5 -workers 8 -json waves.json
//	fdlab explore -system fig1 -n 3 -blocks 3
//	fdlab fleet -system fig1 -n 4 -max-depth 11 -procs 4 -checkpoint fleet.json
//	fdlab replay -in counterexample-fig1-1.json -trace
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"weakestfd"
	"weakestfd/internal/cli"
	"weakestfd/internal/lab"
	"weakestfd/internal/lab/scenarios"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fdlab: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "extract":
		runExtract(os.Args[2:])
	case "falsify":
		runFalsify(os.Args[2:])
	case "matrix":
		runMatrix(os.Args[2:])
	case "explore":
		runExplore(os.Args[2:])
	case "fleet":
		runFleet(os.Args[2:])
	case "fleet-worker":
		// Hidden: the subprocess entry `fdlab fleet` spawns for each worker.
		runFleetWorker()
	case "replay":
		runReplay(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: fdlab <extract|falsify|matrix|explore|fleet|replay> [flags]")
	os.Exit(2)
}

// validatePool applies the shared pool-flag validation, fatally.
func validatePool(workers, seeds int) {
	if err := cli.ValidatePool(workers, seeds); err != nil {
		log.Fatal(err)
	}
}

func runMatrix(args []string) {
	fs := flag.NewFlagSet("matrix", flag.ExitOnError)
	var (
		family      = fs.String("family", "", "scenario family (default: all)")
		seeds       = fs.Int("seeds", 3, "seeds per scenario")
		workers     = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		jsonPath    = fs.String("json", "", "write the aggregate report to this file as JSON")
		fingerprint = fs.Bool("fingerprint", false, "print the deterministic result hash")
		list        = fs.Bool("list", false, "list scenario families and exit")
	)
	_ = fs.Parse(args)
	validatePool(*workers, *seeds)

	if *list {
		fmt.Println(strings.Join(scenarios.FamilyNames(), "\n"))
		return
	}
	matrices, err := scenarios.Select(*family, *seeds)
	if err != nil {
		log.Fatal(err)
	}
	scs, err := lab.ExpandAll(matrices)
	if err != nil {
		log.Fatal(err)
	}
	if err := lab.Drive(os.Stdout, scs, lab.DriveConfig{
		Workers: *workers, JSONPath: *jsonPath, Fingerprint: *fingerprint,
	}); err != nil {
		log.Fatal(err)
	}
}

func runExtract(args []string) {
	fs := flag.NewFlagSet("extract", flag.ExitOnError)
	var (
		n         = fs.Int("n", 4, "number of processes")
		f         = fs.Int("f", 0, "resilience (0 = wait-free)")
		from      = fs.String("from", "omega", "source detector: omega|omegan|omegaF|evp")
		stabilize = fs.Int64("stabilize", 100, "source stabilization step")
		crash     = fs.String("crash", "", "crash times pid:step[,...]")
		seed      = fs.Int64("seed", 1, "seed")
		slack     = fs.Int("slack", 0, "batch slack w(σ) for omega")
		budget    = fs.Int64("budget", 0, "step budget")
	)
	_ = fs.Parse(args)

	det, ok := map[string]weakestfd.Detector{
		"omega":  weakestfd.Omega,
		"omegan": weakestfd.OmegaN,
		"omegaF": weakestfd.OmegaF,
		"evp":    weakestfd.StableEvPerfect,
	}[*from]
	if !ok {
		log.Fatalf("unknown -from %q", *from)
	}
	crashAt, err := cli.ParseCrashes(*crash)
	if err != nil {
		log.Fatal(err)
	}
	res, err := weakestfd.ExtractUpsilon(weakestfd.ExtractConfig{
		N: *n, F: *f,
		From:        det,
		StabilizeAt: *stabilize,
		CrashAt:     crashAt,
		Seed:        *seed,
		BatchSlack:  *slack,
		Budget:      *budget,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("extracted Υ^f output (Figure 3, from %s):\n", *from)
	fmt.Printf("  stable set:   %v (0-based pids)\n", res.Stable)
	fmt.Printf("  stable from:  step %d (of %d)\n", res.StableFrom, res.Steps)
	fmt.Printf("  legal:        %v\n", res.LegalErr == nil)
}

func runFalsify(args []string) {
	fs := flag.NewFlagSet("falsify", flag.ExitOnError)
	var (
		n        = fs.Int("n", 4, "number of processes (≥ 3)")
		f        = fs.Int("f", 3, "target Ω^f size (2..n-1)")
		cand     = fs.String("candidate", "staleness", "complement|staleness|hybrid")
		switches = fs.Int("switches", 20, "target forced switches")
		budget   = fs.Int64("budget", 0, "step budget")
	)
	_ = fs.Parse(args)

	res, err := weakestfd.Falsify(weakestfd.FalsifyConfig{
		N: *n, F: *f,
		Candidate:      *cand,
		TargetSwitches: *switches,
		Budget:         *budget,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("adversary vs %q (Theorem %s):\n", *cand, theoremName(*n, *f))
	fmt.Printf("  forced switches: %d\n", res.Switches)
	fmt.Printf("  stuck:           %v\n", res.Stuck)
	if res.ViolationErr != nil {
		fmt.Printf("  violation:       %v\n", res.ViolationErr)
	}
	fmt.Printf("  steps:           %d\n", res.Steps)
	fmt.Printf("  falsified:       %v\n", res.Falsified)
	if !res.Falsified {
		os.Exit(1)
	}
}

func theoremName(n, f int) string {
	if f == n-1 {
		return "1"
	}
	return "5"
}
