package explore

import (
	"fmt"
	"testing"
)

// TestSwitchBudgetOneSuiteCounts pins the exact explored space of the
// standard suite at switch budget 1: per system, the configurations, runs,
// joined runs, pruned schedules, longest run and settled runs of a clean,
// untruncated sweep. A reduction fault that drops (or adds) schedules
// changes these counts even when the violation sets — empty on the real
// protocols — cannot show it; an off-by-one in the flip-anchoring rule, for
// one, loses 11.6% of the extraction's runs. The two n=3 systems of 192,966
// runs each are left to the benchmark's pins.
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
		"fig2/n=3/f=1":           {147, 28812, 19107, 56436, 106, 0},
		"extract-omega/n=3/f=2":  {135, 43734, 33577, 63300, 768, 43734},
		"composed/n=2/f=1":       {18, 518, 242, 594, 175, 0},
		"timed-composed/n=2/f=1": {5, 68, 0, 89, 126, 0},
	}
	seen := 0
	for _, cfg := range DefaultSweep() {
		label := fmt.Sprintf("%s/n=%d/f=%d", cfg.System.Name(), cfg.System.N(), cfg.withDefaults().MaxFaults)
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
