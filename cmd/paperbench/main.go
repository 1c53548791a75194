// Command paperbench regenerates the reproduction's experiment data.
//
// The default mode expands the full scenario matrix (internal/lab/scenarios)
// and fans the runs out over a worker pool via the internal/lab engine.
// Per-run seeds are derived from scenario names alone, so the aggregate
// results are bit-identical at -workers=1 and -workers=N — only the
// wall-clock changes.
//
// Usage:
//
//	paperbench                      # full scenario matrix, parallel
//	paperbench -run fig1            # one scenario family
//	paperbench -workers 1           # serial (determinism comparison)
//	paperbench -fingerprint         # print the deterministic result hash
//	paperbench -json bench.json     # write the aggregate report as JSON
//	paperbench -list                # list scenario families
//	paperbench -tables              # legacy per-theorem tables E1..E11
//	paperbench -run E4              # one legacy experiment table
//	paperbench -seeds 10            # more seeds per configuration
//	paperbench -explore             # bounded-exhaustive schedule-space sweep
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"weakestfd/internal/cli"
	"weakestfd/internal/lab"
	"weakestfd/internal/lab/scenarios"
)

type experiment struct {
	id    string
	title string
	run   func(w *tableWriter, seeds, workers int)
}

func experiments() []experiment {
	return []experiment{
		{"E1", "Figure 1 / Theorem 2 — n-set agreement from Υ and registers", runE1},
		{"E2", "Figure 2 / Theorem 6 — f-resilient f-set agreement from Υ^f", runE2},
		{"E3", "Figure 3 / Theorem 10 — extracting Υ^f from stable detectors", runE3},
		{"E4", "Theorem 1 — Υ cannot be transformed into Ωn", runE4},
		{"E5", "Theorem 5 — Υ^f cannot be transformed into Ω^f", runE5},
		{"E6", "Section 4 — Υ and Ω are equivalent for 2 processes", runE6},
		{"E7", "Section 5.3 — extracting Ω from Υ¹ in E_1", runE7},
		{"E8", "Corollaries 3/4 — Υ strictly below Ωn, yet solves set agreement", runE8},
		{"E9", "Impossibility baseline — no failure information ⇒ no termination", runE9},
		{"E10", "Ablations — snapshots, stabilization time, converge cost", runE10},
		{"E11", "Section 1 — implementing Υ from timing assumptions", runE11},
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperbench: ")
	var (
		runFilter    = flag.String("run", "", "run one legacy experiment (E1..E11) or one scenario family")
		seeds        = flag.Int("seeds", 3, "seeds per configuration")
		workers      = flag.Int("workers", 0, "worker pool size for the scenario matrix (0 = GOMAXPROCS)")
		jsonPath     = flag.String("json", "", "write the aggregate matrix report to this file as JSON")
		fingerprint  = flag.Bool("fingerprint", false, "print the deterministic result hash of the matrix run")
		list         = flag.Bool("list", false, "list scenario families and exit")
		tables       = flag.Bool("tables", false, "run the legacy per-theorem tables E1..E11")
		exploreRun   = flag.Bool("explore", false, "run the bounded-exhaustive schedule-space sweep (internal/explore) and exit")
		switchBudget = flag.Int("switch-budget", 0, "with -explore: max pre-stabilization detector output switches per history (0 = stable-from-0 histories, the standard suite)")
		cpuprofile   = flag.String("cpuprofile", "", "with -explore: "+cli.CPUProfileUsage)
		memprofile   = flag.String("memprofile", "", "with -explore: "+cli.MemProfileUsage)
	)
	flag.Parse()
	// Reject pool settings that would silently produce empty or hung
	// matrices: negative workers (0 means GOMAXPROCS) and non-positive seeds.
	if err := cli.ValidatePool(*workers, *seeds); err != nil {
		log.Fatal(err)
	}

	if *switchBudget < 0 {
		log.Fatal("-switch-budget must be >= 0")
	}
	if *switchBudget > 0 && !*exploreRun {
		log.Fatal("-switch-budget applies only to -explore")
	}
	if (*cpuprofile != "" || *memprofile != "") && !*exploreRun {
		log.Fatal("-cpuprofile/-memprofile apply only to -explore")
	}
	if *exploreRun {
		stopProfiles, err := cli.StartProfiles(*cpuprofile, *memprofile)
		if err != nil {
			log.Fatal(err)
		}
		err = runExploreSuite(*workers, *switchBudget)
		// Flush before log.Fatal — os.Exit runs no defers, and the exit-1
		// violation path is profiled too.
		stopProfiles()
		if err != nil {
			log.Fatal(err)
		}
		return
	}

	if *list {
		for _, f := range scenarios.FamilyNames() {
			fmt.Println(f)
		}
		return
	}
	if *tables || isLegacyID(*runFilter) {
		if *jsonPath != "" || *fingerprint {
			log.Fatal("-json and -fingerprint apply only to matrix mode, not the legacy tables")
		}
		runLegacy(*runFilter, *seeds, *workers)
		return
	}
	if err := runMatrix(*runFilter, *seeds, *workers, *jsonPath, *fingerprint); err != nil {
		log.Fatal(err)
	}
}

// isLegacyID reports whether the -run filter names a legacy experiment.
func isLegacyID(id string) bool {
	for _, e := range experiments() {
		if strings.EqualFold(id, e.id) {
			return true
		}
	}
	return false
}

// runLegacy prints the per-theorem tables (all, or the one matching id).
func runLegacy(id string, seeds, workers int) {
	any := false
	for _, e := range experiments() {
		if id != "" && !strings.EqualFold(id, e.id) {
			continue
		}
		any = true
		fmt.Printf("## %s: %s\n\n", e.id, e.title)
		w := newTableWriter(os.Stdout)
		e.run(w, seeds, workers)
		w.flush()
		fmt.Println()
	}
	if !any {
		log.Fatalf("no experiment matches -run %q", id)
	}
}

// runMatrix expands the scenario matrix (one family, or all of them) and
// drives it through the lab engine.
func runMatrix(family string, seeds, workers int, jsonPath string, fingerprint bool) error {
	matrices, err := scenarios.Select(family, seeds)
	if err != nil {
		return err
	}
	scs, err := lab.ExpandAll(matrices)
	if err != nil {
		return err
	}
	return lab.Drive(os.Stdout, scs, lab.DriveConfig{
		Workers: workers, JSONPath: jsonPath, Fingerprint: fingerprint,
	})
}

// tableWriter accumulates rows and prints an aligned text table.
type tableWriter struct {
	out    *os.File
	header []string
	rows   [][]string
	notes  []string
}

func newTableWriter(out *os.File) *tableWriter { return &tableWriter{out: out} }

func (w *tableWriter) setHeader(cols ...string) { w.header = cols }

func (w *tableWriter) addRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	w.rows = append(w.rows, row)
}

func (w *tableWriter) note(format string, args ...any) {
	w.notes = append(w.notes, fmt.Sprintf(format, args...))
}

func (w *tableWriter) flush() {
	if len(w.header) > 0 {
		widths := make([]int, len(w.header))
		for i, h := range w.header {
			widths[i] = len(h)
		}
		for _, row := range w.rows {
			for i, c := range row {
				if i < len(widths) && len(c) > widths[i] {
					widths[i] = len(c)
				}
			}
		}
		line := func(cells []string) {
			parts := make([]string, len(cells))
			for i, c := range cells {
				parts[i] = pad(c, widths[i])
			}
			fmt.Fprintln(w.out, "  "+strings.Join(parts, "  "))
		}
		line(w.header)
		dashes := make([]string, len(w.header))
		for i := range dashes {
			dashes[i] = strings.Repeat("-", widths[i])
		}
		line(dashes)
		for _, row := range w.rows {
			line(row)
		}
	}
	for _, n := range w.notes {
		fmt.Fprintln(w.out, "  * "+n)
	}
	w.header, w.rows, w.notes = nil, nil, nil
}

func pad(s string, n int) string {
	if len(s) >= n {
		return s
	}
	return s + strings.Repeat(" ", n-len(s))
}

// stats summarizes a sample of measurements (used by the legacy tables that
// do not route through internal/lab).
type stats struct{ vals []int64 }

func (s *stats) add(v int64) { s.vals = append(s.vals, v) }

func (s *stats) median() int64 {
	if len(s.vals) == 0 {
		return 0
	}
	vs := append([]int64(nil), s.vals...)
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs[len(vs)/2]
}

func (s *stats) max() int64 {
	var m int64
	for _, v := range s.vals {
		if v > m {
			m = v
		}
	}
	return m
}
