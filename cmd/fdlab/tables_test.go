package main

import (
	"regexp"
	"strings"
	"testing"
)

// verdictColumns name the table columns that state whether a paper claim
// held on a row.
var verdictColumns = map[string]bool{
	"ok": true, "legal": true, "falsified": true, "leader correct": true,
	"holds": true, "matches theory": true,
}

// seedCount matches a "k/n" count of the seeds on which a claim held.
var seedCount = regexp.MustCompile(`(\d+)/(\d+)`)

// TestTablesHoldAtOneSeed runs every experiment table E1..E11 at -seeds 1
// and checks the paper's claims as printed: every verdict cell reads true
// and every k/n seed count is full.
func TestTablesHoldAtOneSeed(t *testing.T) {
	var out strings.Builder
	if err := printTables(&out, "", 1, 0); err != nil {
		t.Fatal(err)
	}
	tables := parseTables(t, out.String())
	if len(tables) != len(experiments()) {
		t.Fatalf("printed %d tables, want %d:\n%s", len(tables), len(experiments()), out.String())
	}
	verdicts, counts := 0, 0
	for id, rows := range tables {
		header := rows[0]
		for _, row := range rows[1:] {
			for i, cell := range row {
				if verdictColumns[header[i]] {
					verdicts++
					if cell != "true" {
						t.Errorf("%s: %s = %q on row %q", id, header[i], cell, row)
					}
				}
				for _, m := range seedCount.FindAllStringSubmatch(cell, -1) {
					counts++
					if m[1] != m[2] {
						t.Errorf("%s: seed count %s/%s is not full on row %q", id, m[1], m[2], row)
					}
				}
			}
		}
	}
	if verdicts == 0 || counts == 0 {
		t.Fatalf("checked %d verdict cells and %d seed counts: the parser found nothing to check", verdicts, counts)
	}
}

// parseTables splits printTables output into each table's rows of cells,
// header first, keyed by experiment id. Column starts come from the dashed
// rule under the header, so a row padded short or long (a multibyte cell
// padded by bytes) fails the test instead of being split.
func parseTables(t *testing.T, out string) map[string][][]string {
	t.Helper()
	tables := make(map[string][][]string)
	lines := strings.Split(out, "\n")
	for i, line := range lines {
		title, ok := strings.CutPrefix(line, "## ")
		if !ok {
			continue
		}
		id, _, _ := strings.Cut(title, ":")
		if i+3 >= len(lines) {
			t.Fatalf("%s: table truncated", id)
		}
		rule := []rune(lines[i+3])
		var starts []int
		for c := 1; c < len(rule); c++ {
			if rule[c] == '-' && rule[c-1] == ' ' {
				starts = append(starts, c)
			}
		}
		var rows [][]string
		for j := i + 2; j < len(lines) && lines[j] != "" && !strings.HasPrefix(lines[j], "  * "); j++ {
			if j != i+3 {
				rows = append(rows, splitCells(t, id, []rune(lines[j]), starts))
			}
		}
		tables[id] = rows
	}
	return tables
}

// splitCells cuts one table line at the given column starts.
func splitCells(t *testing.T, id string, line []rune, starts []int) []string {
	t.Helper()
	cells := make([]string, len(starts))
	for k, s := range starts {
		if s >= len(line) {
			continue // trailing empty cells are trimmed
		}
		if line[s-1] != ' ' || line[s] == ' ' {
			t.Fatalf("%s: column %d does not start at rune %d in %q", id, k, s, string(line))
		}
		end := len(line)
		if k+1 < len(starts) {
			end = min(starts[k+1], len(line))
		}
		cells[k] = strings.TrimSpace(string(line[s:end]))
	}
	return cells
}
