package lab

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// RenderFamily writes one family's summaries as an aligned text table: one
// row per scenario, one column per axis (in matrix order, recovered from
// the scenario names), then ok-counts and p50/p99 per metric.
func RenderFamily(w io.Writer, sums []ScenarioSummary) {
	if len(sums) == 0 {
		return
	}
	axes := axisOrder(sums[0].Name)
	metrics := MetricNames(sums)

	header := append([]string{}, axes...)
	header = append(header, "ok")
	for _, m := range metrics {
		header = append(header, m+" p50", m+" p99")
	}
	rows := [][]string{header}
	for _, s := range sums {
		row := make([]string, 0, len(header))
		for _, ax := range axes {
			row = append(row, s.Params[ax])
		}
		row = append(row, fmt.Sprintf("%d/%d", s.Runs-s.Failed, s.Runs))
		for _, m := range metrics {
			if sum, ok := s.Metrics[m]; ok {
				row = append(row, formatNum(sum.P50), formatNum(sum.P99))
			} else {
				row = append(row, "-", "-")
			}
		}
		rows = append(rows, row)
	}
	RenderAligned(w, rows)
	for _, s := range sums {
		for _, e := range s.Errors {
			fmt.Fprintf(w, "  ! %s: %s\n", s.Name, e)
		}
	}
}

// axisOrder recovers the axis column order from a scenario name
// ("family/axis1=v1/axis2=v2/…").
func axisOrder(name string) []string {
	var axes []string
	for _, part := range strings.Split(name, "/")[1:] {
		if i := strings.IndexByte(part, '='); i > 0 {
			axes = append(axes, part[:i])
		}
	}
	return axes
}

// RenderAligned prints rows as a table: the first row is the header, a
// dashed rule follows it, and every column is padded to its widest cell.
// Widths count runes, not bytes, so cells holding Υ, Ω or → line up.
func RenderAligned(w io.Writer, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, c := range row {
			if n := utf8.RuneCountInString(c); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = c + strings.Repeat(" ", widths[i]-utf8.RuneCountInString(c))
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(rows[0])
	dashes := make([]string, len(rows[0]))
	for i := range dashes {
		dashes[i] = strings.Repeat("-", widths[i])
	}
	line(dashes)
	for _, row := range rows[1:] {
		line(row)
	}
}

// formatNum renders a metric value compactly: integers without decimals,
// everything else with two.
func formatNum(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.2f", v)
}
