// Package suppress implements fdlint's audited-exception mechanism: the
// //lint:fdlint comment directive.
//
// Every fdlint analyzer enforces an invariant the explorer's soundness
// argument depends on, so findings may not be silenced casually: a
// suppression is an *audited exception*, and the directive format forces the
// audit trail into the source:
//
//	//lint:fdlint <analyzer>[,<analyzer>...] -- <justification>
//
// placed either on the flagged line itself (trailing comment) or on the line
// immediately above it: a directive covers its own line and the next one,
// and nothing else, so every exemption sits next to the code it excuses.
// The justification after " -- "
// is free text; by policy it must say which dynamic mechanism or review
// argument replaces the static guarantee (see internal/analysis/doc.go for
// the suppression policy).
package suppress

import (
	"go/token"
	"strings"

	"weakestfd/internal/analysis"
)

// prefix is the directive marker. The "lint:" namespace keeps gofmt from
// reformatting the comment and mirrors staticcheck's //lint:ignore.
const prefix = "//lint:fdlint"

// directive is one analyzer exempted on one line of one file.
type directive struct {
	file string
	line int
	name string
}

// Index holds the parsed directives of one package pass.
type Index struct {
	fset       *token.FileSet
	directives map[directive]bool
}

// New parses every //lint:fdlint directive in the pass's files. A directive
// applies to its own line and the line below it.
func New(pass *analysis.Pass) *Index {
	idx := &Index{fset: pass.Fset, directives: map[directive]bool{}}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				p := idx.fset.Position(c.Pos())
				for _, name := range parse(c.Text) {
					idx.directives[directive{p.Filename, p.Line, name}] = true
				}
			}
		}
	}
	return idx
}

// parse returns the analyzer names one comment text exempts, or nil if it is
// not a directive. The justification after " -- " is never read as names;
// it exists for the human auditor.
func parse(text string) []string {
	rest, ok := strings.CutPrefix(text, prefix)
	if !ok || rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil // e.g. //lint:fdlintfoo
	}
	rest, _, _ = strings.Cut(rest, "--")
	return strings.FieldsFunc(rest, func(r rune) bool { return r == ' ' || r == '\t' || r == ',' })
}

// Suppressed reports whether a finding of the named analyzer at pos is
// covered by a directive.
func (idx *Index) Suppressed(name string, pos token.Pos) bool {
	p := idx.fset.Position(pos)
	return idx.directives[directive{p.Filename, p.Line, name}] ||
		idx.directives[directive{p.Filename, p.Line - 1, name}]
}

// Report emits a diagnostic through pass unless a directive suppresses it.
func (idx *Index) Report(pass *analysis.Pass, pos token.Pos, format string, args ...any) {
	if idx.Suppressed(pass.Analyzer.Name, pos) {
		return
	}
	pass.Reportf(pos, format, args...)
}
