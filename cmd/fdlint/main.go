// fdlint is the repository's soundness linter: a go vet -vettool binary
// bundling the three fdlint analyzers (accesscheck, seamcheck,
// determinism). See internal/analysis for what each rule protects.
//
// Usage:
//
//	go build -o fdlint ./cmd/fdlint
//	go vet -vettool=$PWD/fdlint ./...
//
// The go command drives the binary: it asks for a build ID (-V=full) and
// the tool's flags (-flags; there are none), then passes one JSON vet
// config per package, naming the package's Go files and the compiler
// export data of its imports. fdlint type-checks the package against that
// export data, runs every analyzer, prints each finding to stderr as
// file:line:col: message, and exits 1 if there was any. It is not a
// standalone file checker.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"strings"

	"weakestfd/internal/analysis"
	"weakestfd/internal/analysis/accesscheck"
	"weakestfd/internal/analysis/determinism"
	"weakestfd/internal/analysis/seamcheck"
)

var analyzers = []*analysis.Analyzer{
	accesscheck.Analyzer,
	seamcheck.Analyzer,
	determinism.Analyzer,
}

// vetConfig is the part of the go command's per-package vet config that
// fdlint reads.
type vetConfig struct {
	Compiler    string
	ImportPath  string
	GoVersion   string
	GoFiles     []string
	ImportMap   map[string]string // import path in source → package path
	PackageFile map[string]string // package path → export data file
	// VetxOnly marks a dependency vetted only for the facts it exports.
	VetxOnly   bool
	VetxOutput string // where the facts file goes
	// SucceedOnTypecheckFailure leaves type errors for the compiler to report.
	SucceedOnTypecheckFailure bool
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("fdlint: ")
	args := os.Args[1:]
	switch {
	case len(args) == 1 && args[0] == "-V=full":
		printVersion()
	case len(args) == 1 && args[0] == "-flags":
		fmt.Println("[]")
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		os.Exit(vet(args[0]))
	default:
		fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$(command -v fdlint) ./...\n\nanalyzers:")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		os.Exit(1)
	}
}

// printVersion answers the go command's -V=full probe. The build ID is the
// executable's content hash, so rebuilding fdlint invalidates cached vet
// results.
func printVersion() {
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s version devel buildID=%x\n", exe, sha256.Sum256(data))
}

// vet checks the package one vet config describes and returns the exit
// status: 1 if any analyzer reported a finding.
func vet(cfgFile string) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		log.Fatal(err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		log.Fatalf("cannot decode vet config %s: %v", cfgFile, err)
	}
	// No analyzer exports facts, so every facts file is empty and a unit
	// vetted only for its facts needs nothing more.
	if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
		log.Fatal(err)
	}
	if cfg.VetxOnly {
		return 0
	}
	fset := token.NewFileSet()
	files, pkg, info, err := typecheck(fset, &cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		log.Fatal(err)
	}
	diags := analysis.Run(analyzers, fset, files, pkg, info)
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(d.Pos), d.Message)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// typecheck parses the config's Go files and type-checks them at its Go
// version, importing dependencies from their compiler export data.
func typecheck(fset *token.FileSet, cfg *vetConfig) ([]*ast.File, *types.Package, *types.Info, error) {
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	export := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	tc := types.Config{
		Importer: importerFunc(func(importPath string) (*types.Package, error) {
			path, ok := cfg.ImportMap[importPath]
			if !ok {
				return nil, fmt.Errorf("cannot resolve import %q", importPath)
			}
			return export.Import(path)
		}),
		Sizes:     types.SizesFor("gc", build.Default.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	info := analysis.NewInfo()
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	return files, pkg, info, err
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
