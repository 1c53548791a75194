// Command benchgate is the CI benchmark-regression gate: it compares a fresh
// `paperbench -bench-json` report against the committed baseline and fails
// (exit 1) when a hot path regressed.
//
// Checks, per benchmark present in both reports:
//
//   - ns/op must not exceed baseline × (1 + tolerance) — wall-clock gate;
//   - allocs/op must not exceed baseline × (1 + tolerance) — allocation gate;
//   - steps/op, when present in both, must match exactly — the simulation is
//     deterministic, so any drift is a semantic change, not noise.
//
// Report-level checks: the deterministic explorer run-count ratios must not
// fall below -min-explore-reduction (budget 0) and -min-flip-reduction
// (switch budget 1), and the measured workloads (matrix seeds) must match.
//
// Wall-clock numbers only compare meaningfully on comparable hardware. When
// the two reports disagree on GOMAXPROCS (a cheap different-machine
// heuristic), the ns/op and allocs/op gates demote to warnings and only the
// machine-independent checks (steps/op, run-count ratios) stay fatal;
// regenerate the baseline on the gating machine to re-arm them.
//
// Improvements never fail the gate; they are reported so the baseline can be
// refreshed (`paperbench -bench-json bench/baseline.json`).
//
// Usage:
//
//	benchgate -baseline bench/baseline.json -current BENCH_PR2.json
//	benchgate -tolerance 0.2 -min-explore-reduction 2 ...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
)

// benchReport mirrors cmd/paperbench's BenchReport (kept in sync by the
// schema field; both sides are this repository).
type benchReport struct {
	Schema           int           `json:"schema"`
	GOMAXPROCS       int           `json:"gomaxprocs"`
	MatrixSeeds      int           `json:"matrix_seeds"`
	Benchmarks       []benchResult `json:"benchmarks"`
	ExploreReduction float64       `json:"explore_reduction"`
	FlipReduction    float64       `json:"flip_reduction"`
}

type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	StepsPerOp  float64 `json:"steps_per_op"`
	StepsPerSec float64 `json:"steps_per_sec"`
}

func load(path string) (*benchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != 1 {
		return nil, fmt.Errorf("%s: unsupported schema %d", path, rep.Schema)
	}
	return &rep, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchgate: ")
	var (
		baselinePath = flag.String("baseline", "bench/baseline.json", "committed baseline report")
		currentPath  = flag.String("current", "", "freshly measured report (paperbench -bench-json)")
		tolerance    = flag.Float64("tolerance", 0.20, "allowed fractional regression in ns/op and allocs/op")
		minReduction = flag.Float64("min-explore-reduction", 2.0, "minimum classic-vs-source explorer run-count reduction (0 disables the check)")
		minFlip      = flag.Float64("min-flip-reduction", 2.0, "minimum classic-vs-source run-count reduction on the switch-budget-1 sweep (0 disables the check)")
	)
	flag.Parse()
	if *currentPath == "" {
		log.Fatal("-current is required")
	}

	baseline, err := load(*baselinePath)
	if err != nil {
		log.Fatal(err)
	}
	current, err := load(*currentPath)
	if err != nil {
		log.Fatal(err)
	}
	if gate(os.Stdout, baseline, current, *tolerance, *minReduction, *minFlip) {
		os.Exit(1)
	}
}

// gate runs every check of current against baseline, writing the report to
// w, and returns whether any fatal check failed.
//
// Fractional-tolerance comparisons are meaningless against a zero baseline
// (the limit collapses to zero and grace margins can wave a real regression
// through), so zero baseline entries are exact-match-required: any non-zero
// current value against a zero baseline fails — always fatally, since a
// zero recorded cost is either corrupt data or a metric the current report
// must also lack.
func gate(w io.Writer, baseline, current *benchReport, tolerance, minReduction, minFlip float64) (failed bool) {
	fail := func(format string, args ...any) {
		failed = true
		fmt.Fprintf(w, "FAIL: "+format+"\n", args...)
	}
	// Wall-clock comparisons only mean something on comparable hardware;
	// demote them to warnings when the reports come from different machines.
	sameHardware := baseline.GOMAXPROCS == current.GOMAXPROCS
	wallFail := fail
	if !sameHardware {
		fmt.Fprintf(w, "note: baseline GOMAXPROCS=%d vs current GOMAXPROCS=%d — different machine; wall-clock gates demoted to warnings (regenerate the baseline here to re-arm)\n",
			baseline.GOMAXPROCS, current.GOMAXPROCS)
		wallFail = func(format string, args ...any) {
			fmt.Fprintf(w, "warn: "+format+"\n", args...)
		}
	}

	if baseline.MatrixSeeds != current.MatrixSeeds {
		fail("workloads differ: baseline matrix seeds %d vs current %d (pass the baseline's -seeds to paperbench -bench-json)",
			baseline.MatrixSeeds, current.MatrixSeeds)
	}
	// The run-count ratio is deterministic in the exploration configuration
	// (no wall clock involved), so this check stays fatal on any hardware.
	if minReduction > 0 {
		if current.ExploreReduction < minReduction {
			fail("explore reduction %.2fx below required %.2fx (the source engine must beat classic DPOR on executed runs)",
				current.ExploreReduction, minReduction)
		} else {
			fmt.Fprintf(w, "ok:   explore reduction %.2fx (floor %.2fx)\n",
				current.ExploreReduction, minReduction)
		}
	}
	// Same determinism argument for the switch-budget-1 ratio: flip-anchored
	// wakeup sequences must keep the source engine well below classic even
	// under unstable histories.
	if minFlip > 0 {
		if current.FlipReduction < minFlip {
			fail("flip reduction %.2fx below required %.2fx (flip-anchored wakeup sequences must beat classic DPOR at switch budget 1)",
				current.FlipReduction, minFlip)
		} else {
			fmt.Fprintf(w, "ok:   flip reduction %.2fx (floor %.2fx)\n",
				current.FlipReduction, minFlip)
		}
	}

	base := make(map[string]benchResult, len(baseline.Benchmarks))
	for _, b := range baseline.Benchmarks {
		base[b.Name] = b
	}
	seen := 0
	for _, cur := range current.Benchmarks {
		b, ok := base[cur.Name]
		if !ok {
			fmt.Fprintf(w, "note: %s has no baseline (new benchmark)\n", cur.Name)
			continue
		}
		seen++
		switch {
		case b.NsPerOp == 0:
			if cur.NsPerOp != 0 {
				fail("%s: baseline records 0 ns/op (exact match required); current %.0f ns/op",
					cur.Name, cur.NsPerOp)
			}
		case cur.NsPerOp > b.NsPerOp*(1+tolerance):
			wallFail("%s: %.0f ns/op exceeds baseline %.0f ns/op by more than %.0f%%",
				cur.Name, cur.NsPerOp, b.NsPerOp, tolerance*100)
		case cur.NsPerOp < b.NsPerOp*(1-tolerance):
			fmt.Fprintf(w, "ok:   %s improved: %.0f -> %.0f ns/op (consider refreshing the baseline)\n",
				cur.Name, b.NsPerOp, cur.NsPerOp)
		default:
			fmt.Fprintf(w, "ok:   %s: %.0f ns/op (baseline %.0f)\n", cur.Name, cur.NsPerOp, b.NsPerOp)
		}
		switch {
		case b.AllocsPerOp == 0:
			if cur.AllocsPerOp != 0 {
				fail("%s: baseline records 0 allocs/op (exact match required); current %d allocs/op",
					cur.Name, cur.AllocsPerOp)
			}
		case float64(cur.AllocsPerOp) > float64(b.AllocsPerOp)*(1+tolerance) && cur.AllocsPerOp > b.AllocsPerOp+8:
			// Alloc counts are hardware-independent in principle, but map/GC
			// internals vary across Go builds; gate them with the wall rules.
			wallFail("%s: %d allocs/op exceeds baseline %d by more than %.0f%%",
				cur.Name, cur.AllocsPerOp, b.AllocsPerOp, tolerance*100)
		}
		if b.StepsPerOp != cur.StepsPerOp {
			fail("%s: steps/op drifted: %.1f -> %.1f (simulation is deterministic; this is a semantic change)",
				cur.Name, b.StepsPerOp, cur.StepsPerOp)
		}
	}
	if seen == 0 {
		fail("no benchmark overlaps the baseline")
	}
	if !failed {
		fmt.Fprintln(w, "benchgate: all checks passed")
	}
	return failed
}
