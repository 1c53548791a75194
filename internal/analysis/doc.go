// Package analysis is the home of fdlint: a static-analysis suite that turns
// the explorer's soundness conventions into machine-checked invariants.
//
// Every headline number the explorer produces — "violation-free over the
// full n≤3 suite", "19,946 runs, 9,453 of them joined", "the mutant is
// killed at SwitchBudget 1" — rests on three properties that no test can
// establish, because they are properties of the *code*, not of any
// particular run:
//
//  1. Completeness of the dependency relation. Source-DPOR prunes a
//     schedule only when every pair of reordered steps is independent, and
//     independence is computed from the access sets that machines report
//     through sim.AccessLog. One uninstrumented shared-object access makes
//     the relation under-approximate real conflicts, and the pruning
//     silently drops reachable schedules.
//  2. Seam-routed detector observation. Unstable-history exploration is
//     sound because queries and output flips are conflicting accesses of a
//     virtual history object (internal/sim/query.go). A query that
//     bypasses the seam is invisible to that conflict relation.
//  3. Determinism of steps and hot paths. Replayable artifacts, pinned
//     result digests, differential equality and state-hash joins all
//     assume a run is a pure function of (config, schedule, seeds).
//
// The three analyzers map onto those properties:
//
//   - accesscheck (invariant 1): in machine-world code, shared-object state
//     may only be touched through the AccessLog-taking Direct* accessors of
//     internal/memory; raw field access and the Inspect-style accessors
//     are flagged.
//   - seamcheck (invariant 2): detector output may only be observed via
//     fd.QueryAt or sim.QuerySeam.Query; direct Oracle.Value calls are
//     flagged outside internal/fd.
//   - determinism (invariant 3): in Step/Init bodies, machine-world helpers
//     and the internal/explore + internal/sim hot paths, time.Now,
//     math/rand, map ranging, select-with-default and go statements are
//     flagged.
//
// # Suppression policy
//
// A finding is silenced only by an audited exception:
//
//	//lint:fdlint <analyzer> -- <justification>
//
// on the flagged line or the line above it; there is no file-wide form. The
// justification must name the mechanism that replaces the static guarantee
// — e.g. a process reading a single-writer register it owns, or a history
// transformer being oracle *plumbing* whose output is itself observed
// through the seam. Suppressions without a
// justification fail code review, not the build: the directive's " -- "
// tail is deliberately free text, and `git grep 'lint:fdlint'` is the audit
// surface. See internal/analysis/suppress.
//
// # Running
//
// This package also holds the small framework the analyzers run on: an
// Analyzer is a name, a one-line summary and a Run function over a Pass
// (one type-checked package), and Run applies a list of analyzers to a
// package. No analyzer needs facts, prerequisites or results, so there is
// nothing more.
//
// cmd/fdlint is the go vet -vettool driver: it speaks the go command's vet
// protocol itself, type-checks each package against the compiler's export
// data and runs every analyzer on it. CI (and the end-to-end tests in
// smoke_test.go) run it over the whole repository as
//
//	go build -o fdlint ./cmd/fdlint
//	go vet -vettool=$PWD/fdlint ./...
//
// Each analyzer also has an analysistest-style suite under its testdata/src
// tree, driven by the loader in internal/analysis/analysistest, which
// resolves testdata stubs by path suffix and the stdlib from source, then
// calls the same Run. The end-to-end tests vet those testdata trees through
// the driver too, so the suites pin the driver's report as well.
package analysis
