package main

import (
	"flag"
	"fmt"
	"log"

	"weakestfd"
)

// runSolve is the `fdlab solve` subcommand: it runs one set-agreement
// instance on the simulated asynchronous shared-memory system (n processes,
// n+1 in the paper's notation; 0-based pids in -crash) and prints the
// outcome.
func runSolve(args []string) {
	fs := flag.NewFlagSet("solve", flag.ExitOnError)
	var (
		n         = fs.Int("n", 4, "number of processes")
		f         = fs.Int("f", 1, "resilience (for -alg fig2)")
		alg       = fs.String("alg", "fig1", "algorithm: fig1|fig2|omegan|consensus|boosted|async")
		crash     = fs.String("crash", "", "crash times as pid:step[,pid:step...]")
		stabilize = fs.Int64("stabilize", 0, "failure detector stabilization step")
		seed      = fs.Int64("seed", 1, "random seed")
		sched     = fs.String("sched", "random", "schedule: random|roundrobin")
		regOnly   = fs.Bool("registers-only", false, "use the Afek et al. registers-only snapshot")
		budget    = fs.Int64("budget", 0, "step budget (0 = default)")
		props     = fs.String("values", "", "comma-separated proposals (default 100..100+n-1)")
		showTrace = fs.Bool("trace", false, "print a step-class summary of the run")
	)
	_ = fs.Parse(args)

	algorithm, ok := map[string]weakestfd.Algorithm{
		"fig1":      weakestfd.UpsilonFig1,
		"fig2":      weakestfd.UpsilonFFig2,
		"omegan":    weakestfd.OmegaNBaseline,
		"consensus": weakestfd.OmegaConsensus,
		"boosted":   weakestfd.OmegaNBoosted,
		"async":     weakestfd.AsyncAttempt,
	}[*alg]
	if !ok {
		log.Fatalf("unknown -alg %q", *alg)
	}
	schedule, ok := map[string]weakestfd.ScheduleKind{
		"random":     weakestfd.RandomSchedule,
		"roundrobin": weakestfd.RoundRobinSchedule,
	}[*sched]
	if !ok {
		log.Fatalf("unknown -sched %q", *sched)
	}
	crashAt, err := parseCrashes(*crash)
	if err != nil {
		log.Fatal(err)
	}
	proposals, err := parseProposals(*props)
	if err != nil {
		log.Fatal(err)
	}
	if proposals == nil {
		proposals = defaultProposals(*n)
	}
	if len(proposals) != *n {
		log.Fatalf("%d proposals for n=%d", len(proposals), *n)
	}

	res, err := weakestfd.SolveSetAgreement(weakestfd.SetAgreementConfig{
		N:             *n,
		F:             *f,
		Algorithm:     algorithm,
		Proposals:     proposals,
		CrashAt:       crashAt,
		StabilizeAt:   *stabilize,
		Seed:          *seed,
		Schedule:      schedule,
		RegistersOnly: *regOnly,
		Budget:        *budget,
		Trace:         *showTrace,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("algorithm:  %v\n", algorithm)
	fmt.Printf("steps:      %d\n", res.Steps)
	fmt.Printf("crashed:    %v\n", res.Crashed)
	fmt.Printf("decisions:\n")
	for i := 0; i < *n; i++ {
		if v, ok := res.Decisions[i]; ok {
			fmt.Printf("  p%-3d %d\n", i+1, v)
		} else {
			fmt.Printf("  p%-3d (crashed)\n", i+1)
		}
	}
	fmt.Printf("distinct:   %v (bound ≤ %d)\n", res.Distinct, res.K)
	if res.Trace != "" {
		fmt.Println("\ntrace summary:")
		fmt.Print(res.Trace)
	}
}
