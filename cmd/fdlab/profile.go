package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// startProfiles starts CPU profiling into cpuPath and arranges a heap
// profile into memPath (either may be empty = off). It returns a stop
// function that stops the CPU profile and writes the heap profile; errors
// while flushing are reported on stderr so a profiling failure never masks
// the run's own exit code.
//
// The caller must invoke stop *before* any os.Exit — os.Exit runs no
// deferred functions, and the sweep subcommands' non-zero exit paths
// (violations found, exhaustiveness void) are exactly the runs worth
// profiling.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "fdlab: -cpuprofile: %v\n", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fdlab: -memprofile: %v\n", err)
				return
			}
			runtime.GC() // materialize up-to-date allocation statistics
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "fdlab: -memprofile: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "fdlab: -memprofile: %v\n", err)
			}
		}
	}, nil
}

// Usage strings for the -cpuprofile/-memprofile flags, shared so every
// subcommand spells them identically.
const (
	cpuProfileUsage = "write a CPU profile of the sweep to this file"
	memProfileUsage = "write an allocation profile (taken after the sweep, post-GC) to this file"
)
