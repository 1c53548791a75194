package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"

	"weakestfd/internal/fleet"
)

// runFleet is the `fdlab fleet` subcommand: the explore sweep sharded
// across worker processes with work-stealing and a resumable checkpoint.
// It shares the sweep-shaping flags and the report tail with `fdlab
// explore`, so its exit codes and `explored ...` summary line are
// drop-in compatible.
func runFleet(args []string) {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	sf := addSweepFlags(fs)
	var (
		procs      = fs.Int("procs", 2, "worker processes to shard the sweep across")
		workers    = fs.Int("workers", 0, "executor-pool width per worker process (0 = GOMAXPROCS/procs, min 1)")
		checkpoint = fs.String("checkpoint", "", "frontier checkpoint file, rewritten after every shard (enables -resume)")
		resume     = fs.Bool("resume", false, "resume from -checkpoint, re-running only incomplete shards")
		workerCmd  = fs.String("worker-cmd", "", "exec template launching one worker (space-separated argv; default: this binary's hidden fleet-worker subcommand)")
		progress   = fs.Bool("progress", false, "print fleet events (shards, steals, finished configurations)")
		outDir     = fs.String("out", ".", "directory for counterexample artifacts")
		cpuprofile = fs.String("cpuprofile", "", cpuProfileUsage+" (coordinator process only)")
		memprofile = fs.String("memprofile", "", memProfileUsage+" (coordinator process only)")
	)
	_ = fs.Parse(args)
	if *procs < 1 {
		log.Fatalf("-procs must be >= 1, got %d", *procs)
	}
	if *workers < 0 {
		log.Fatalf("-workers must be >= 0, got %d", *workers)
	}
	if *resume && *checkpoint == "" {
		log.Fatal("-resume requires -checkpoint")
	}
	spec := sf.spec()
	spec.Workers = *workers
	if spec.Workers == 0 {
		// Split the machine between the worker processes instead of
		// oversubscribing it Procs-fold.
		spec.Workers = max(1, runtime.GOMAXPROCS(0) / *procs)
	}

	cmd := []string{}
	if *workerCmd != "" {
		cmd = strings.Fields(*workerCmd)
	} else {
		self, err := os.Executable()
		if err != nil {
			log.Fatalf("locating own binary for fleet-worker: %v", err)
		}
		cmd = []string{self, "fleet-worker"}
	}

	opts := fleet.Options{
		Spec:           spec,
		Procs:          *procs,
		WorkerCmd:      cmd,
		CheckpointPath: *checkpoint,
		Resume:         *resume,
	}
	if *progress {
		// The coordinator invokes OnProgress from its single event loop, so
		// no extra serialization is needed here.
		opts.OnProgress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}
	sum, err := fleet.Run(opts)
	if err != nil {
		// log.Fatal calls os.Exit, which runs no defers: flush first.
		stopProfiles()
		log.Fatal(err)
	}
	fmt.Printf("fleet: %d jobs (%d resumed, %d executed) over %d workers, %d shards, %d steals, %dms wall\n",
		sum.Jobs, sum.ResumedJobs, sum.ExecutedJobs, sum.Workers, sum.Shards, sum.Steals, sum.WallMS)
	code := reportSweep(sum.Result, spec, *outDir)
	stopProfiles()
	exitCode(code)
}

// runFleetWorker is the hidden `fdlab fleet-worker` subcommand: one worker
// process speaking the length-delimited fleet protocol on stdin/stdout.
// Users never invoke it directly; `fdlab fleet` (or a custom -worker-cmd
// wrapper) spawns it.
func runFleetWorker() {
	if err := fleet.WorkerMain(os.Stdin, os.Stdout); err != nil {
		log.Fatalf("fleet-worker: %v", err)
	}
}
