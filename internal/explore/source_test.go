package explore

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"weakestfd/internal/sim"
)

// Differential testing of source-DPOR with and without state-hash joins:
// identical verdicts, pinned executions. CI's explore-smoke job runs these
// explicitly.

// violationKeys returns the sorted (pattern, oracle, property) triples of a
// result's violations.
func violationKeys(r *Result) []string {
	var out []string
	for _, v := range r.Violations {
		out = append(out, violationKey(v))
	}
	sort.Strings(out)
	return out
}

// TestSourceVsClassicDifferential compares the two reduction variants — pure
// source-DPOR (NoHash) and source-DPOR with state-hash joins (the default) —
// on the toy ground truth, the full standard suite, the pinned fig1 sweeps
// and three zoo mutants. On the clean sweeps it pins both variants' exact run
// counts: a reduction fault that drops or adds schedules changes them even
// where the violation sets, empty on the real protocols, cannot show it. The
// ground-truth oracle (oracle_test.go) checks the same engine against an
// unreduced enumeration.
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
		// (sleep sets cull siblings only after paying a run); source-DPOR
		// must execute exactly one run per class.
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
		// The standard suite's exact explored space per system: 19,946 source
		// runs, 9,453 of them joined.
		pins := map[string]runPin{
			"fig1/n=2/f=1":           {242, 242, 0},
			"fig1/n=3/f=2":           {8610, 8610, 4356},
			"fig2/n=3/f=1":           {1938, 1938, 684},
			"fig2/n=3/f=2":           {8610, 8610, 4356},
			"extract-omega/n=3/f=2":  {416, 416, 57},
			"composed/n=2/f=1":       {62, 62, 0},
			"timed-composed/n=2/f=1": {68, 68, 0},
		}
		var pruned int64
		for _, cfg := range DefaultSweep() {
			label := sweepLabel(cfg)
			want, ok := pins[label]
			if !ok {
				t.Errorf("%s: no pinned counts for this DefaultSweep system", label)
				continue
			}
			delete(pins, label)
			s, h := exploreVariants(cfg)
			checkCleanSweep(t, label, s, h, want)
			pruned += s.Pruned
			if s.System == "extract-omega" {
				// Settledness is the one non-trace-invariant margin (see
				// doc.go); guard against a silent collapse under either
				// variant.
				if s.SettledRuns == 0 || h.SettledRuns == 0 {
					t.Errorf("extract-omega: settled runs source=%d source+hash=%d; the sanity property was never exercised",
						s.SettledRuns, h.SettledRuns)
				}
			}
		}
		for label := range pins {
			t.Errorf("%s: pinned system missing from DefaultSweep", label)
		}
		if pruned == 0 {
			t.Error("sleep and source sets pruned nothing across the whole suite")
		}
	})

	// The pinned fig1 sweeps: one crash time, branch horizon 12.
	pinnedSweep := func(t *testing.T, n, switchBudget int, want runPin) {
		t.Helper()
		s, h := exploreVariants(Config{
			System:       Fig1System(n),
			SwitchBudget: switchBudget,
			CrashTimes:   []sim.Time{0},
			MaxDepth:     12,
			Budget:       2048,
		})
		checkCleanSweep(t, fmt.Sprintf("fig1 n=%d switch-budget %d", n, switchBudget), s, h, want)
	}
	t.Run("budget0", func(t *testing.T) {
		pinnedSweep(t, 3, 0, runPin{7710, 7710, 4176})
	})
	t.Run("budget1", func(t *testing.T) {
		// The regime the flip-anchored wakeup sequences (wakeup.go) were
		// built for.
		pinnedSweep(t, 2, 1, runPin{250, 250, 96})
		pinnedSweep(t, 3, 1, runPin{176838, 176838, 127944})
	})

	t.Run("mutants", func(t *testing.T) {
		// Three zoo mutants covering the engine's regimes: a pure scheduling
		// race (full wakeup sequences), a flip-schedule kill (flip-anchored
		// wakeup sequences under an unstable history), and a flips-plus-joins
		// extraction kill (MaxDepth 1 < Budget keeps the hash layer active on
		// a violating sweep — joins must not eat violations). Each case pins
		// the exact number of violating configurations both variants must
		// find.
		cases := []struct {
			name      string
			cfg       Config
			violating int
		}{
			{"fig1-broken-adopt", Config{
				System:        mustSystem("fig1-broken-adopt", 2, 1),
				MaxDepth:      24,
				Budget:        2048,
				MaxViolations: 1 << 20,
				Workers:       1,
			}, 2},
			{"fig1-skip-on-change", skipOnChangeGrid(), 2},
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
			}, 2},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				s, h := exploreVariants(tc.cfg)
				sk, hk := violationKeys(s), violationKeys(h)
				if strings.Join(sk, "\n") != strings.Join(hk, "\n") {
					t.Fatalf("violation sets differ:\nsource (%d):\n%s\nsource+hash (%d):\n%s",
						len(sk), strings.Join(sk, "\n"), len(hk), strings.Join(hk, "\n"))
				}
				if len(sk) != tc.violating {
					t.Fatalf("found %d violating configs, want %d:\n%s",
						len(sk), tc.violating, strings.Join(sk, "\n"))
				}
				t.Logf("identical %d violating configs; source %d runs vs source+hash %d (%d joined)",
					len(sk), s.Runs, h.Runs, h.Joined)
			})
		}
	})
}

// runPin is the exact explored space of one clean sweep: the executed runs
// of pure source-DPOR and of source-DPOR with state-hash joins, and the
// joined runs of the latter.
type runPin struct{ source, hash, joined int64 }

// exploreVariants sweeps cfg as pure source-DPOR (NoHash) and with
// state-hash joins (the default).
func exploreVariants(cfg Config) (source, hash *Result) {
	cfg.NoHash = true
	source = Explore(cfg)
	cfg.NoHash = false
	hash = Explore(cfg)
	return source, hash
}

// skipOnChangeGrid is the switch-budget-1 grid on which the skip-on-change
// fig1 mutant at n=2 has exactly two violating configurations, one per
// stable set.
func skipOnChangeGrid() Config {
	return Config{
		System:       mustSystem("fig1-skip-on-change", 2, 1),
		SwitchBudget: 1,
		FlipTimes:    []sim.Time{14},
		CrashTimes:   []sim.Time{0},
		// 31 contains the witness's last race: the laggard's round-2
		// decision poll against the skipper's write, near depth 29.
		MaxDepth: 31,
		Budget:   2048,
		// Capping at the two violating configurations keeps the sweeps
		// CI-affordable: uncapped, every clean flip-variant config is
		// searched to depth 31.
		MaxViolations: 2,
		Workers:       1,
	}
}

// checkCleanSweep requires both variants of a clean protocol's sweep to find
// no violation, run untruncated over the same configurations, and execute
// exactly the pinned runs. A sound join key never changes the search, only
// who executes each tail: the hash variant visits exactly the pure-source
// schedules (an earlier key that ignored forced grants pending past the
// horizon merged real schedules). The pins imply it; it is checked apart so
// a re-pin cannot hide a broken invariant.
func checkCleanSweep(t *testing.T, label string, s, h *Result, want runPin) {
	t.Helper()
	for _, r := range []*Result{s, h} {
		if len(r.Violations) != 0 {
			t.Errorf("%s: %s found violations on the real protocol: %v", label, r.Engine, r.Violations)
		}
		if r.Truncated {
			t.Errorf("%s: %s truncated — exhaustiveness claim void", label, r.Engine)
		}
	}
	if s.Configs != h.Configs {
		t.Errorf("%s: variants explored different config counts: %d vs %d", label, s.Configs, h.Configs)
	}
	if h.Runs != s.Runs {
		t.Errorf("%s: source+hash executed %d runs vs pure source's %d; the join key is altering the search", label, h.Runs, s.Runs)
	}
	if got := (runPin{s.Runs, h.Runs, h.Joined}); got != want {
		t.Errorf("%s: runs source/source+hash and joined = %v, want %v", label, got, want)
	}
	t.Logf("%s: source %d runs (%d pruned) vs source+hash %d (%d joined)",
		label, s.Runs, s.Pruned, h.Runs, h.Joined)
}

// sweepLabel names a sweep's system as system/n=/f=.
func sweepLabel(cfg Config) string {
	return fmt.Sprintf("%s/n=%d/f=%d", cfg.System.Name(), cfg.System.N(), cfg.System.MaxFaults())
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
