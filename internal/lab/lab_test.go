package lab

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func synthMatrix(seeds int) Matrix {
	return Matrix{
		Family: "synth",
		Axes: []Axis{
			Vals("n", 2, 3),
			{Name: "mode", Values: []Value{{Name: "flat", V: 1.0}, {Name: "steep", V: 10.0}}},
		},
		Seeds: seeds,
		Build: func(pt Point) RunFunc {
			n := pt.Int("n")
			scale := pt.Get("mode").(float64)
			return func(seed int64) (Metrics, error) {
				// Deterministic in (cell, seed) alone.
				v := float64(n)*scale + float64(seed%97)
				return Metrics{"score": v, "n": float64(n)}, nil
			}
		},
	}
}

func TestExpand(t *testing.T) {
	scs := synthMatrix(3).Expand()
	if len(scs) != 4 {
		t.Fatalf("expanded %d scenarios, want 4", len(scs))
	}
	want := "synth/n=2/mode=flat"
	if scs[0].Name != want {
		t.Fatalf("first scenario %q, want %q", scs[0].Name, want)
	}
	if scs[0].Params["n"] != "2" || scs[0].Params["mode"] != "flat" {
		t.Fatalf("bad params %v", scs[0].Params)
	}
	if scs[0].Seeds != 3 {
		t.Fatalf("seeds %d, want 3", scs[0].Seeds)
	}
}

func TestExpandSkip(t *testing.T) {
	m := synthMatrix(1)
	m.Skip = func(pt Point) bool { return pt.Int("n") == 3 }
	scs := m.Expand()
	if len(scs) != 2 {
		t.Fatalf("expanded %d scenarios, want 2 after skip", len(scs))
	}
	for _, s := range scs {
		if s.Params["n"] != "2" {
			t.Fatalf("skip leaked scenario %q", s.Name)
		}
	}
}

func TestExpandAllRejectsDuplicates(t *testing.T) {
	m := synthMatrix(1)
	if _, err := ExpandAll([]Matrix{m, m}); err == nil {
		t.Fatal("duplicate scenario names not rejected")
	}
	scs, err := ExpandAll([]Matrix{m})
	if err != nil || len(scs) != 4 {
		t.Fatalf("ExpandAll: %v (%d scenarios)", err, len(scs))
	}
}

func TestDeriveSeedStable(t *testing.T) {
	a := DeriveSeed("synth/n=2/mode=flat", 0)
	b := DeriveSeed("synth/n=2/mode=flat", 0)
	if a != b {
		t.Fatalf("DeriveSeed not stable: %d != %d", a, b)
	}
	if DeriveSeed("synth/n=2/mode=flat", 1) == a {
		t.Fatal("seed stream does not vary with index")
	}
	if DeriveSeed("synth/n=3/mode=flat", 0) == a {
		t.Fatal("seed stream does not vary with scenario name")
	}
}

// TestDeterministicAcrossWorkers is the engine's core contract: the
// deterministic portion of the report is bit-identical for any worker count.
func TestDeterministicAcrossWorkers(t *testing.T) {
	scs := synthMatrix(5).Expand()
	var prints []string
	for _, workers := range []int{1, 2, 7} {
		rep := Run(scs, Options{Workers: workers})
		if rep.Workers != workers {
			t.Fatalf("report workers %d, want %d", rep.Workers, workers)
		}
		if rep.Runs != 4*5 || rep.Failed != 0 {
			t.Fatalf("workers=%d: runs=%d failed=%d", workers, rep.Runs, rep.Failed)
		}
		prints = append(prints, rep.Fingerprint())
	}
	for i := 1; i < len(prints); i++ {
		if prints[i] != prints[0] {
			t.Fatalf("fingerprint differs across worker counts: %s vs %s", prints[0], prints[i])
		}
	}
}

func TestRunAggregatesFailures(t *testing.T) {
	m := Matrix{
		Family: "flaky",
		Axes:   []Axis{Vals("n", 1)},
		Seeds:  6,
		Build: func(Point) RunFunc {
			return func(seed int64) (Metrics, error) {
				if seed%2 == 0 {
					// Failed runs may still report diagnostics.
					return Metrics{"progress": 7}, errors.New("even seed rejected")
				}
				return Metrics{"v": 1}, nil
			}
		},
	}
	rep := Run(m.Expand(), Options{Workers: 3})
	s := rep.Scenarios[0]
	if s.Runs != 6 {
		t.Fatalf("runs %d, want 6", s.Runs)
	}
	if s.Failed != s.Runs-s.Metrics["v"].N {
		t.Fatalf("failed %d inconsistent with %d ok samples of %d runs", s.Failed, s.Metrics["v"].N, s.Runs)
	}
	if s.Failed > 0 && (len(s.Errors) == 0 || !strings.Contains(s.Errors[0], "even seed")) {
		t.Fatalf("errors not aggregated: %v", s.Errors)
	}
	// Metrics returned alongside an error are kept as diagnostics.
	if got := s.Metrics["progress"]; got.N != s.Failed || got.Max != 7 {
		t.Fatalf("failed-run metrics not aggregated: %+v", got)
	}
}

func TestSummaryStats(t *testing.T) {
	vs := []float64{5, 1, 4, 2, 3}
	s := newSummary(vs)
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("bad summary %+v", s)
	}
	if math.Abs(s.Mean-3) > 1e-9 {
		t.Fatalf("mean %v, want 3", s.Mean)
	}
	if s.P99 != 5 {
		t.Fatalf("p99 %v, want 5 (nearest rank)", s.P99)
	}
	// Percentiles over a large sample hit the expected ranks.
	big := make([]float64, 100)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 50); got != 50 {
		t.Fatalf("p50 of 1..100 = %v, want 50", got)
	}
	if got := percentile(big, 99); got != 99 {
		t.Fatalf("p99 of 1..100 = %v, want 99", got)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep := Run(synthMatrix(2).Expand(), Options{Workers: 2})
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != rep.Fingerprint() {
		t.Fatal("fingerprint changed across JSON round trip")
	}
	if len(back.Scenarios) != len(rep.Scenarios) {
		t.Fatalf("scenario count %d, want %d", len(back.Scenarios), len(rep.Scenarios))
	}
}

func TestRenderFamily(t *testing.T) {
	rep := Run(synthMatrix(2).Expand(), Options{Workers: 1})
	var buf bytes.Buffer
	RenderFamily(&buf, rep.Family("synth"))
	out := buf.String()
	for _, want := range []string{"n", "mode", "ok", "score p50", "2/2", "steep"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "synth/") {
		t.Fatalf("table should use axis columns, not full names:\n%s", out)
	}
}

func TestDrive(t *testing.T) {
	scs := synthMatrix(2).Expand()
	var buf bytes.Buffer
	jsonPath := filepath.Join(t.TempDir(), "report.json")
	if err := Drive(&buf, scs, DriveConfig{Workers: 2, JSONPath: jsonPath, Fingerprint: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"## family synth", "4 scenarios, 8 runs (0 failed)", "fingerprint: ", "report written to "} {
		if !strings.Contains(out, want) {
			t.Fatalf("Drive output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("JSON report invalid: %v", err)
	}
	if rep.Runs != 8 {
		t.Fatalf("report runs %d, want 8", rep.Runs)
	}

	// A failing matrix surfaces as a Drive error.
	bad := Matrix{
		Family: "bad",
		Axes:   []Axis{Vals("n", 1)},
		Seeds:  2,
		Build: func(Point) RunFunc {
			return func(int64) (Metrics, error) { return nil, errors.New("boom") }
		},
	}
	if err := Drive(&bytes.Buffer{}, bad.Expand(), DriveConfig{}); err == nil {
		t.Fatal("Drive did not report failed runs")
	}
}

func TestFamilies(t *testing.T) {
	a := synthMatrix(1)
	b := synthMatrix(1)
	b.Family = "other"
	scs, err := ExpandAll([]Matrix{a, b})
	if err != nil {
		t.Fatal(err)
	}
	fams := Families(scs)
	if fmt.Sprint(fams) != "[synth other]" {
		t.Fatalf("families %v", fams)
	}
}

// TestRenderAlignedCountsRunes pins rune-count padding: Υ, → and Ω take two
// or three bytes in UTF-8, so byte-count padding would start the next
// column early on that row.
func TestRenderAlignedCountsRunes(t *testing.T) {
	var buf bytes.Buffer
	RenderAligned(&buf, [][]string{
		{"detector", "ok"},
		{"Υ → Ω", "true"},
		{"plain", "false"},
	})
	want := "  detector  ok\n" +
		"  --------  -----\n" +
		"  Υ → Ω     true\n" +
		"  plain     false\n"
	if got := buf.String(); got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
}
