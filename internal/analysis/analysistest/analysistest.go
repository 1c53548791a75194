// Package analysistest drives the fdlint analyzers over self-contained
// testdata packages, mirroring golang.org/x/tools/go/analysis/analysistest:
// expectations are `// want "regexp"` comments, testdata lives in a
// GOPATH-style testdata/src tree, and stub copies of the simulator packages
// (weakestfd/internal/sim, .../memory, ...) sit in that tree under their
// real path *suffixes* so the analyzers' suffix-based type resolution finds
// them.
//
// The loader resolves imports by hand, with no go/packages: a path with a
// directory under testdata/src is parsed and type-checked from that
// directory, and anything else (the stdlib) is type-checked from $GOROOT
// source via the standard library's "source" importer. Packages are
// type-checked and analyzed through the same analysis.NewInfo and
// analysis.Run the cmd/fdlint driver uses.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"weakestfd/internal/analysis"
)

// Run loads each named package from testdata/src/<path>, applies a to it,
// and checks the reported diagnostics against the // want comments in the
// package's files.
func Run(t *testing.T, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	ld := newLoader(filepath.Join(testdata, "src"))
	for _, path := range pkgPaths {
		t.Run(path, func(t *testing.T) {
			pkg, err := ld.load(path)
			if err != nil {
				t.Fatalf("loading %s: %v", path, err)
			}
			diags := analysis.Run([]*analysis.Analyzer{a}, ld.fset, pkg.files, pkg.pkg, pkg.info)
			checkExpectations(t, a, ld, pkg, diags)
		})
	}
}

// pkgInfo is one loaded testdata package: syntax, types and type info.
type pkgInfo struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// loader resolves imports: testdata/src first, stdlib from source second.
type loader struct {
	srcDir string
	fset   *token.FileSet
	loaded map[string]*pkgInfo
	std    types.ImporterFrom
}

func newLoader(srcDir string) *loader {
	fset := token.NewFileSet()
	return &loader{
		srcDir: srcDir,
		fset:   fset,
		loaded: map[string]*pkgInfo{},
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
}

// Import implements types.Importer for the type-checker's use.
func (ld *loader) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(ld.srcDir, filepath.FromSlash(path)); isDir(dir) {
		pi, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return pi.pkg, nil
	}
	return ld.std.ImportFrom(path, "", 0)
}

// load parses and type-checks testdata/src/<path>, memoizing the result.
func (ld *loader) load(path string) (*pkgInfo, error) {
	if pi, ok := ld.loaded[path]; ok {
		return pi, nil
	}
	dir := filepath.Join(ld.srcDir, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := analysis.NewInfo()
	conf := types.Config{Importer: ld}
	pkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, err
	}
	pi := &pkgInfo{pkg: pkg, files: files, info: info}
	ld.loaded[path] = pi
	return pi, nil
}

func isDir(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}

// expectation is one `// want "re"` clause: a position and a pattern.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// checkExpectations cross-checks diagnostics against // want comments:
// every diagnostic must be expected, every expectation must fire.
func checkExpectations(t *testing.T, a *analysis.Analyzer, ld *loader, pi *pkgInfo, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range pi.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := ld.fset.Position(c.Pos())
				for _, raw := range splitQuoted(m[1]) {
					pat, err := strconv.Unquote(raw)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, raw, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: pat})
				}
			}
		}
	}
	for _, d := range diags {
		pos := ld.fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: unexpected %s diagnostic: %s", pos.Filename, pos.Line, a.Name, d.Message)
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		return wants[i].file < wants[j].file || (wants[i].file == wants[j].file && wants[i].line < wants[j].line)
	})
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}

// splitQuoted extracts the double-quoted or backquoted tokens of a want
// clause ("re1" "re2" → two tokens), preserving the quotes for Unquote.
func splitQuoted(s string) []string {
	var out []string
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			j := i + 1
			for j < len(s) && (s[j] != '"' || s[j-1] == '\\') {
				j++
			}
			if j < len(s) {
				out = append(out, s[i:j+1])
				i = j
			}
		case '`':
			j := i + 1
			for j < len(s) && s[j] != '`' {
				j++
			}
			if j < len(s) {
				out = append(out, s[i:j+1])
				i = j
			}
		}
	}
	return out
}
