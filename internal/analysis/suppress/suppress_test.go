package suppress_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"weakestfd/internal/analysis"
	"weakestfd/internal/analysis/suppress"
)

// src numbers its lines in trailing comments so the table below can name
// them; a directive on line L covers lines L and L+1.
const src = `//lint:fdlint determinism -- above the package clause: line-level like any other
package p // 2

func f() { // 4
	//lint:fdlint accesscheck -- own-line directive
	_ = 1 // 6
	_ = 2 // 7
	_ = 3 //lint:fdlint seamcheck -- trailing directive
	_ = 4 // 9
	_ = 5 // 10
	//lint:fdlint accesscheck,seamcheck -- comma-separated list
	_ = 6 // 12
	//lint:fdlint	determinism	seamcheck -- tab-separated list
	_ = 7 // 14
	//lint:fdlint determinism -- seamcheck accesscheck are justification, not names
	_ = 8 // 16
	//lint:fdlintfoo accesscheck -- not a directive: no separator after the marker
	_ = 9 // 18
	/*lint:fdlint accesscheck -- block comments are not directives*/
	_ = 10 // 20
	//lint:fdlint -- no names, so no directive
	_ = 11 // 22
}

func g() { // 25
	_ = 12 // 26
}
`

func TestSuppressed(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	idx := suppress.New(&analysis.Pass{Fset: fset, Files: []*ast.File{f}})
	tf := fset.File(f.Pos())

	for _, tc := range []struct {
		name     string
		analyzer string
		line     int
		want     bool
	}{
		{"directive line itself", "accesscheck", 5, true},
		{"line below the directive", "accesscheck", 6, true},
		{"two lines below the directive", "accesscheck", 7, false},
		{"line above the directive", "accesscheck", 4, false},
		{"trailing directive's own line", "seamcheck", 8, true},
		{"line below a trailing directive", "seamcheck", 9, true},
		{"two lines below a trailing directive", "seamcheck", 10, false},
		{"another analyzer's directive", "determinism", 6, false},
		{"another analyzer's trailing directive", "accesscheck", 8, false},
		{"comma list, first name", "accesscheck", 12, true},
		{"comma list, second name", "seamcheck", 12, true},
		{"tab list, first name", "determinism", 14, true},
		{"tab list, second name", "seamcheck", 14, true},
		{"name before --", "determinism", 16, true},
		{"name after -- (seamcheck)", "seamcheck", 16, false},
		{"name after -- (accesscheck)", "accesscheck", 16, false},
		{"//lint:fdlintfoo", "accesscheck", 18, false},
		{"block comment", "accesscheck", 20, false},
		{"directive without names", "accesscheck", 22, false},
		{"package-clause directive covers the clause line", "determinism", 2, true},
		{"package-clause directive is not file-wide", "determinism", 26, false},
	} {
		if got := idx.Suppressed(tc.analyzer, tf.LineStart(tc.line)); got != tc.want {
			t.Errorf("%s: Suppressed(%s, line %d) = %v, want %v", tc.name, tc.analyzer, tc.line, got, tc.want)
		}
	}
}
