package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"weakestfd/internal/lab"
)

type experiment struct {
	id    string
	title string
	run   func(w *table, seeds, workers int)
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

// runTables is the `fdlab tables` subcommand: the per-theorem experiment
// tables E1..E11, each checking one of the paper's claims.
func runTables(args []string) {
	fs := flag.NewFlagSet("tables", flag.ExitOnError)
	var (
		id      = fs.String("run", "", "run one experiment table (E1..E11; default: all)")
		seeds   = fs.Int("seeds", 3, "seeds per configuration")
		workers = fs.Int("workers", 0, "worker pool size for the tables run through internal/lab (0 = GOMAXPROCS)")
	)
	_ = fs.Parse(args)
	validatePool(*workers, *seeds)
	if err := printTables(os.Stdout, *id, *seeds, *workers); err != nil {
		log.Fatal(err)
	}
}

// printTables is runTables' testable body: it writes every experiment table,
// or only the one whose id matches, to out.
func printTables(out io.Writer, id string, seeds, workers int) error {
	matched := false
	for _, e := range experiments() {
		if id != "" && !strings.EqualFold(id, e.id) {
			continue
		}
		matched = true
		fmt.Fprintf(out, "## %s: %s\n\n", e.id, e.title)
		var t table
		e.run(&t, seeds, workers)
		t.print(out)
		fmt.Fprintln(out)
	}
	if !matched {
		return fmt.Errorf("no experiment matches -run %q", id)
	}
	return nil
}

// table accumulates one table's rows and footnotes.
type table struct {
	rows  [][]string // rows[0] is the header
	notes []string
}

func (t *table) setHeader(cols ...string) { t.rows = [][]string{cols} }

func (t *table) addRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.rows = append(t.rows, row)
}

func (t *table) note(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// print writes the rows through lab.RenderAligned, then one "  * " line per
// footnote.
func (t *table) print(out io.Writer) {
	lab.RenderAligned(out, t.rows)
	for _, n := range t.notes {
		fmt.Fprintln(out, "  * "+n)
	}
}
