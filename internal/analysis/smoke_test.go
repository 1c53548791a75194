// Package analysis_test holds the end-to-end tests of the fdlint vettool:
// the binary must build, the real repository must vet clean under it, and
// each analyzer's testdata tree, vetted as a module, must fail with exactly
// the findings its // want comments expect. The per-analyzer behaviour is
// covered by the analysistest suites next to each analyzer; these tests pin
// the wiring — the go vet protocol, type-checking from export data,
// suppression parsing and the printed report — against real go vet runs.
package analysis_test

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"weakestfd/internal/analysis"
	"weakestfd/internal/analysis/accesscheck"
	"weakestfd/internal/analysis/determinism"
	"weakestfd/internal/analysis/seamcheck"
)

// tmpDir holds the fdlint binary the end-to-end tests share.
var tmpDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "fdlint")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tmpDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// buildFDLint builds cmd/fdlint on first use and returns the binary's path.
var buildFDLint = sync.OnceValues(func() (string, error) {
	tool := filepath.Join(tmpDir, "fdlint")
	if out, err := exec.Command("go", "build", "-o", tool, "weakestfd/cmd/fdlint").CombinedOutput(); err != nil {
		return "", fmt.Errorf("building fdlint: %v\n%s", err, out)
	}
	return tool, nil
})

// TestFDLintCleanOnRepo builds cmd/fdlint and runs it over the whole module
// via the vet vettool protocol. Any finding not carrying an audited
// //lint:fdlint suppression fails the build — which is exactly the contract
// CI enforces.
func TestFDLintCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the module twice; skipped under -short")
	}
	tool, err := buildFDLint()
	if err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command("go", "vet", "-vettool="+tool, "weakestfd/...").CombinedOutput(); err != nil {
		t.Errorf("fdlint reported findings on the repo:\n%s", out)
	}
}

var (
	findingRE = regexp.MustCompile(`^(.+\.go):(\d+):\d+: (.*)$`)
	wantRE    = regexp.MustCompile("// want `([^`]*)`")
)

// TestFDLintReportsTestdataFindings proves the driver's reporting path, which
// a clean repository run cannot: a driver that checked nothing would pass
// TestFDLintCleanOnRepo too. Each analyzer's testdata/src tree is vetted as
// a module named weakestfd (the weakestfd/... stubs at its root, the other
// packages beside them); vet must exit non-zero and print exactly one
// finding per // want comment, on its line and matching its pattern, and
// none on the lines a //lint:fdlint directive covers.
func TestFDLintReportsTestdataFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("builds fdlint and vets three modules; skipped under -short")
	}
	tool, err := buildFDLint()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		analyzer *analysis.Analyzer
		findings int
	}{
		{accesscheck.Analyzer, 5},
		{seamcheck.Analyzer, 2},
		{determinism.Analyzer, 7},
	} {
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			mod := testdataModule(t, filepath.Join(tc.analyzer.Name, "testdata", "src"))
			vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
			vet.Dir = mod
			vet.Env = append(vet.Environ(), "GOWORK=off")
			out, err := vet.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatalf("go vet: err = %v, want a non-zero exit; output:\n%s", err, out)
			}

			got := map[string]string{} // "file:line" → the finding printed there
			for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
				if strings.HasPrefix(line, "# ") {
					continue // package header
				}
				m := findingRE.FindStringSubmatch(line)
				if m == nil {
					t.Errorf("unexpected vet output line: %s", line)
					continue
				}
				key := m[1] + ":" + m[2]
				if _, dup := got[key]; dup {
					t.Errorf("%s: more than one finding", key)
				}
				got[key] = m[3]
			}

			want, covered := expectations(t, mod)
			for key, re := range want {
				if msg, ok := got[key]; !ok {
					t.Errorf("%s: no finding, want one matching %q", key, re)
				} else if !re.MatchString(msg) {
					t.Errorf("%s: finding %q does not match %q", key, msg, re)
				}
			}
			for key, msg := range got {
				if want[key] == nil {
					t.Errorf("%s: unexpected finding %q", key, msg)
				}
			}
			if len(got) != tc.findings {
				t.Errorf("got %d findings, want %d:\n%s", len(got), tc.findings, out)
			}
			if len(covered) == 0 {
				t.Error("no //lint:fdlint directive in the tree: the suppression path is untested")
			}
			for _, key := range covered {
				if msg, ok := got[key]; ok {
					t.Errorf("%s: suppressed line reported %q", key, msg)
				}
			}
		})
	}
}

// testdataModule copies an analysistest testdata/src tree into a temporary
// module named weakestfd and returns its directory.
func testdataModule(t *testing.T, src string) string {
	t.Helper()
	mod := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		dst := filepath.Join(mod, e.Name())
		if e.Name() == "weakestfd" {
			dst = mod
		}
		if err := os.CopyFS(dst, os.DirFS(filepath.Join(src, e.Name()))); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(mod, "go.mod"), []byte("module weakestfd\n\ngo 1.24\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	return mod
}

// expectations reads a module's // want patterns and lists the lines its
// //lint:fdlint directives cover (each directive's own line and the next),
// all keyed "file:line" relative to the module root.
func expectations(t *testing.T, mod string) (want map[string]*regexp.Regexp, covered []string) {
	t.Helper()
	want = map[string]*regexp.Regexp{}
	err := filepath.WalkDir(mod, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(mod, path)
		if err != nil {
			return err
		}
		for i, text := range strings.Split(string(data), "\n") {
			key := fmt.Sprintf("%s:%d", rel, i+1)
			if strings.HasPrefix(strings.TrimSpace(text), "//lint:fdlint ") {
				covered = append(covered, key, fmt.Sprintf("%s:%d", rel, i+2))
			}
			if m := wantRE.FindStringSubmatch(text); m != nil {
				re, err := regexp.Compile(m[1])
				if err != nil {
					return fmt.Errorf("%s: %v", key, err)
				}
				want[key] = re
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return want, covered
}
