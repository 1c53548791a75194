package explore

import (
	"fmt"
	"strings"
	"testing"

	"weakestfd/internal/sim"
)

// Differential testing of the source-DPOR engine against the classic engine:
// identical verdicts, fewer executions. CI's explore-smoke matrix runs these
// explicitly.

// TestSourceVsClassicDifferential compares the three reduction variants —
// classic DPOR, pure source-DPOR (NoHash), and source-DPOR with state-hash
// joins (the default) — on the toy ground truth, the full standard suite,
// the pinned fig1 n=3 sweep and three zoo mutants. On the clean sweeps it
// pins every variant's exact run count: a reduction fault that drops or adds
// schedules changes them even where the violation sets, empty on the real
// protocols, cannot show it.
func TestSourceVsClassicDifferential(t *testing.T) {
	if testing.Short() {
		// The engine-equivalence sweep is the slowest test in the package
		// and exercises no concurrency the other lanes miss; the race lane
		// runs with -short and relies on the full lane for equivalence.
		t.Skip("engine differential sweep skipped under -short")
	}
	t.Run("toy-optimal", func(t *testing.T) {
		// The 2×(read;write) shared-counter space has 6 raw interleavings in
		// 4 Mazurkiewicz classes. Classic DPOR is sound but not optimal here
		// (sleep sets cull siblings only after paying a run); the source
		// engine must execute exactly one run per class.
		res := Explore(Config{
			System: toySystem{name: "toy-shared", props: []Property{propSomeoneDecides2{}}},
		})
		if res.Runs != 4 {
			t.Errorf("source engine executed %d runs on the lost-update toy, want exactly its 4 trace classes", res.Runs)
		}
		if len(res.Violations) == 0 {
			t.Error("source engine missed the lost-update violation")
		}
	})

	t.Run("clean-suite", func(t *testing.T) {
		// The standard suite's exact explored space per system: the ~13.7×
		// reduction of the README, classic 273,092 runs against source's
		// 19,946 (9,453 of them joined), stays a fact of this test.
		pins := map[string]runPin{
			"fig1/n=2/f=1":           {24477, 242, 242, 0},
			"fig1/n=3/f=2":           {94158, 8610, 8610, 4356},
			"fig2/n=3/f=1":           {35520, 1938, 1938, 684},
			"fig2/n=3/f=2":           {94158, 8610, 8610, 4356},
			"extract-omega/n=3/f=2":  {16225, 416, 416, 57},
			"composed/n=2/f=1":       {4731, 62, 62, 0},
			"timed-composed/n=2/f=1": {3823, 68, 68, 0},
		}
		for _, cfg := range DefaultSweep() {
			label := sweepLabel(cfg)
			want, ok := pins[label]
			if !ok {
				t.Errorf("%s: no pinned counts for this DefaultSweep system", label)
				continue
			}
			delete(pins, label)
			c, s, h := exploreEngines(cfg)
			checkCleanSweep(t, label, c, s, h, want)
			if c.System == "extract-omega" {
				// Settledness is the one non-trace-invariant margin (see
				// dpor.go); guard against a silent collapse under either
				// source variant.
				if s.SettledRuns == 0 || h.SettledRuns == 0 {
					t.Errorf("extract-omega: settled runs source=%d source+hash=%d; the sanity property was never exercised",
						s.SettledRuns, h.SettledRuns)
				}
			}
		}
		for label := range pins {
			t.Errorf("%s: pinned system missing from DefaultSweep", label)
		}
	})

	// The pinned fig1 n=3 sweep the reduction headlines are quoted on: one
	// crash time, branch horizon 12. Classic over source is 88,620/7,710 =
	// 11.5× with stable histories and 1,318,020/176,838 = 7.5× under one
	// detector switch — before flip anchoring, source degraded to
	// single-initial insertion there and the margin collapsed.
	pinnedSweep := func(t *testing.T, n, switchBudget int, want runPin) {
		t.Helper()
		c, s, h := exploreEngines(Config{
			System:       Fig1System(n),
			SwitchBudget: switchBudget,
			CrashTimes:   []sim.Time{0},
			MaxDepth:     12,
			Budget:       2048,
		})
		checkCleanSweep(t, fmt.Sprintf("fig1 n=%d switch-budget %d", n, switchBudget), c, s, h, want)
	}
	t.Run("budget0", func(t *testing.T) {
		pinnedSweep(t, 3, 0, runPin{88620, 7710, 7710, 4176})
	})
	t.Run("budget1", func(t *testing.T) {
		// The regime the flip-anchored wakeup sequences (wakeup.go) were
		// built for.
		pinnedSweep(t, 2, 1, runPin{1298, 250, 250, 96})
		pinnedSweep(t, 3, 1, runPin{1318020, 176838, 176838, 127944})
	})

	t.Run("mutants", func(t *testing.T) {
		// Three zoo mutants covering the engine's regimes: a pure scheduling
		// race (full wakeup sequences), a flip-schedule kill (flip-anchored
		// wakeup sequences under an unstable history), and a flips-plus-joins
		// extraction kill (MaxDepth 1 < Budget keeps the hash layer active on
		// a violating sweep — joins must not eat violations).
		cases := []struct {
			name string
			cfg  Config
		}{
			{"fig1-broken-adopt", Config{
				System:        BrokenFig1System(2),
				MaxDepth:      24,
				Budget:        2048,
				MaxViolations: 1 << 20,
				Workers:       1,
			}},
			{"fig1-skip-on-change", Config{
				System:       SkipOnChangeFig1System(2),
				SwitchBudget: 1,
				FlipTimes:    []sim.Time{14},
				CrashTimes:   []sim.Time{0},
				MaxDepth:     31,
				Budget:       2048,
				// The mutant has exactly two violating configurations on
				// this grid (see TestDifferentialSwitchMutant); capping
				// there keeps the three full-depth sweeps CI-affordable.
				MaxViolations: 2,
				Workers:       1,
			}},
			{"extract-stale-leader", Config{
				System:        mustSystem("extract-stale-leader", 2, 1),
				SwitchBudget:  1,
				FlipTimes:     []sim.Time{2},
				CrashTimes:    []sim.Time{0},
				MaxDepth:      1,
				MaxRuns:       16,
				Budget:        768,
				MaxViolations: 1 << 20,
				Workers:       1,
			}},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				c, s, h := exploreEngines(tc.cfg)
				ck, sk, hk := violationKeys(c), violationKeys(s), violationKeys(h)
				if strings.Join(ck, "\n") != strings.Join(sk, "\n") {
					t.Fatalf("violation sets differ:\nclassic (%d):\n%s\nsource (%d):\n%s",
						len(ck), strings.Join(ck, "\n"), len(sk), strings.Join(sk, "\n"))
				}
				if strings.Join(ck, "\n") != strings.Join(hk, "\n") {
					t.Fatalf("violation sets differ:\nclassic (%d):\n%s\nsource+hash (%d):\n%s",
						len(ck), strings.Join(ck, "\n"), len(hk), strings.Join(hk, "\n"))
				}
				if len(ck) == 0 {
					t.Fatal("no engine killed the mutant")
				}
				t.Logf("identical %d violating configs; classic %d runs vs source %d vs source+hash %d (%d joined)",
					len(ck), c.Runs, s.Runs, h.Runs, h.Joined)
			})
		}
	})
}

// runPin is the exact explored space of one clean sweep: the executed runs
// of classic DPOR, pure source-DPOR and source-DPOR with state-hash joins,
// and the joined runs of the last.
type runPin struct{ classic, source, hash, joined int64 }

// exploreEngines sweeps cfg under the three reduction variants: classic
// DPOR, pure source-DPOR (NoHash) and source-DPOR with state-hash joins (the
// default).
func exploreEngines(cfg Config) (classic, source, hash *Result) {
	cfg.Engine = EngineDPOR
	classic = Explore(cfg)
	cfg.Engine = EngineSource
	cfg.NoHash = true
	source = Explore(cfg)
	cfg.NoHash = false
	hash = Explore(cfg)
	return classic, source, hash
}

// checkCleanSweep requires the three variants of a clean protocol's sweep to
// find no violation, run untruncated over the same configurations, and
// execute exactly the pinned runs. Source never runs more than classic, and
// a sound join key never changes the search, only who executes each tail:
// the hash variant visits exactly the pure-source schedules (an earlier key
// that ignored forced grants pending past the horizon merged real
// schedules). The pins imply both; they are checked apart so a re-pin
// cannot hide a broken invariant.
func checkCleanSweep(t *testing.T, label string, c, s, h *Result, want runPin) {
	t.Helper()
	for _, r := range []*Result{c, s, h} {
		if len(r.Violations) != 0 {
			t.Errorf("%s: engine %s found violations on the real protocol: %v", label, r.Engine, r.Violations)
		}
		if r.Truncated {
			t.Errorf("%s: engine %s truncated — exhaustiveness claim void", label, r.Engine)
		}
	}
	if c.Configs != s.Configs || c.Configs != h.Configs {
		t.Errorf("%s: engines explored different config counts: %d vs %d vs %d", label, c.Configs, s.Configs, h.Configs)
	}
	if s.Runs > c.Runs {
		t.Errorf("%s: source executed %d runs, more than classic's %d", label, s.Runs, c.Runs)
	}
	if h.Runs != s.Runs {
		t.Errorf("%s: source+hash executed %d runs vs pure source's %d; the join key is altering the search", label, h.Runs, s.Runs)
	}
	if got := (runPin{c.Runs, s.Runs, h.Runs, h.Joined}); got != want {
		t.Errorf("%s: runs classic/source/source+hash and joined = %v, want %v", label, got, want)
	}
	t.Logf("%s: classic %d runs vs source %d (%d pruned) vs source+hash %d (%d joined)",
		label, c.Runs, s.Runs, s.Pruned, h.Runs, h.Joined)
}

// sweepLabel names a sweep's system as system/n=/f=.
func sweepLabel(cfg Config) string {
	return fmt.Sprintf("%s/n=%d/f=%d", cfg.System.Name(), cfg.System.N(), cfg.withDefaults().MaxFaults)
}

// mustSystem resolves a registered system or fails the build of the test
// fixture loudly.
func mustSystem(name string, n, f int) System {
	sys, err := NewSystem(name, n, f)
	if err != nil {
		panic(err)
	}
	return sys
}
