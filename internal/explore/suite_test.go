package explore

import "testing"

// TestSwitchBudgetOneSuiteCounts pins the exact explored space of the
// standard suite at switch budget 1: per system, the configurations, runs,
// joined runs, pruned schedules, longest run and settled runs of a clean,
// untruncated sweep. A reduction fault that drops (or adds) schedules
// changes these counts even when the violation sets — empty on the real
// protocols — cannot show it; an off-by-one in the flip-anchoring rule, for
// one, loses 11.6% of the extraction's runs. All seven systems are pinned,
// 463,666 runs in all, the same counts the benchmark's suite-sb1 workload
// pins.
func TestSwitchBudgetOneSuiteCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("switch-budget-1 suite skipped under -short")
	}
	type pin struct {
		configs               int
		runs, joined, pruned  int64
		maxSteps, settledRuns int64
	}
	pins := map[string]pin{
		"fig1/n=2/f=1":           {50, 4602, 1996, 8378, 69, 0},
		"fig1/n=3/f=2":           {1482, 192966, 134388, 396006, 64, 0},
		"fig2/n=3/f=1":           {147, 28812, 19107, 56436, 106, 0},
		"fig2/n=3/f=2":           {1482, 192966, 134388, 396006, 70, 0},
		"extract-omega/n=3/f=2":  {135, 43734, 33577, 63300, 768, 43734},
		"composed/n=2/f=1":       {18, 518, 242, 594, 175, 0},
		"timed-composed/n=2/f=1": {5, 68, 0, 89, 126, 0},
	}
	seen := 0
	for _, cfg := range DefaultSweep() {
		label := sweepLabel(cfg)
		want, ok := pins[label]
		if !ok {
			continue
		}
		seen++
		cfg.SwitchBudget = 1
		res := Explore(cfg)
		if len(res.Violations) != 0 {
			t.Errorf("%s: %d violations on the real protocol: %v", label, len(res.Violations), res.Violations[0])
		}
		if res.Truncated {
			t.Errorf("%s: sweep truncated", label)
		}
		got := pin{res.Configs, res.Runs, res.Joined, res.Pruned, res.MaxSteps, res.SettledRuns}
		if got != want {
			t.Errorf("%s: configs/runs/joined/pruned/max-steps/settled = %v, want %v", label, got, want)
		}
	}
	if seen != len(pins) {
		t.Fatalf("DefaultSweep covered %d of the %d pinned systems", seen, len(pins))
	}
}

// TestComposedCountsN3 pins the exact explored space of both task-set
// systems at n=3, beyond the suite's n=2 compositions: composed at switch
// budget 1 and timed-composed (which consumes no oracle), both at the
// default crash times, branch depth 14 and budget 4096.
func TestComposedCountsN3(t *testing.T) {
	type pin struct {
		configs              int
		runs, joined, pruned int64
		maxSteps             int64
	}
	for _, tc := range []struct {
		cfg  Config
		want pin
	}{
		{Config{System: ComposedSystem(3), MaxDepth: 14, Budget: 4096, SwitchBudget: 1}, pin{135, 11761, 6908, 16969, 257}},
		{Config{System: TimedComposedSystem(3), MaxDepth: 14, Budget: 4096}, pin{19, 536, 180, 904, 118}},
	} {
		res := Explore(tc.cfg)
		label := sweepLabel(tc.cfg)
		if len(res.Violations) != 0 || res.Truncated {
			t.Errorf("%s: %d violations, truncated %v", label, len(res.Violations), res.Truncated)
		}
		got := pin{res.Configs, res.Runs, res.Joined, res.Pruned, res.MaxSteps}
		if got != tc.want {
			t.Errorf("%s: configs/runs/joined/pruned/max-steps = %v, want %v", label, got, tc.want)
		}
	}
}

// TestJoinCachesAcrossWorkers sweeps the fig1 n=2 system of DefaultSweep at
// switch budget 1 with one lab worker and with four: the pooled join caches
// pass between the configurations' searches, on as many goroutines as there
// are workers, and the result must not depend on it. CI's race job runs it
// ten times under the race detector.
func TestJoinCachesAcrossWorkers(t *testing.T) {
	cfg := DefaultSweep()[0]
	if label := sweepLabel(cfg); label != "fig1/n=2/f=1" {
		t.Fatalf("DefaultSweep()[0] is %s, want fig1/n=2/f=1", label)
	}
	cfg.SwitchBudget = 1
	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		res := Explore(cfg)
		got := [4]int64{int64(res.Configs), res.Runs, res.Joined, res.Pruned}
		if want := [4]int64{50, 4602, 1996, 8378}; got != want {
			t.Errorf("%d workers: configs/runs/joined/pruned = %v, want %v", workers, got, want)
		}
	}
}
