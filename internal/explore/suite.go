package explore

// DefaultSweep returns the standard exhaustive sweep over the real
// protocols at n ≤ 3 (plus the n = 2 compositions): the configuration CI's
// explore-smoke job (and `fdlab suite`) must complete with zero
// violations. TestSourceVsClassicDifferential pins each system's exact run
// counts, with and without state-hash joins, and its join count.
//
// The engine covers every schedule — arbitrarily many context switches —
// whose branching lies in the first MaxDepth steps, up to commutativity of
// independent steps, with the fair tail beyond the branch horizon. MaxDepth
// values are tuned so the whole suite finishes well under the CI limit on
// one core; the per-system values reflect how conflict-dense the protocol's
// opening is (the extraction's processes touch only their own registers for
// the first ~15 steps, so its race frontier starts later but fans out fast).
func DefaultSweep() []Config {
	return []Config{
		{System: Fig1System(2), MaxDepth: 28, Budget: 2048},
		{System: Fig1System(3), MaxDepth: 12, Budget: 2048},
		{System: Fig2System(3, 1), MaxDepth: 12, Budget: 2048},
		{System: Fig2System(3, 2), MaxDepth: 12, Budget: 2048},
		// The extraction never terminates, so every run costs the full
		// budget; the branch horizon keeps the sweep quick while covering
		// every interleaving of the first 18 steps.
		{System: ExtractOmegaSystem(3), MaxDepth: 18, Budget: 768},
		// The Corollary 11 pipeline (extraction ∘ protocol as parallel task
		// sets, run as sim.TaskMachines) and its oracle-free
		// timing-based sibling, safety properties only — see
		// ComposedSystem/TimedComposedSystem.
		{System: ComposedSystem(2), MaxDepth: 24, Budget: 4096},
		{System: TimedComposedSystem(2), MaxDepth: 20, Budget: 4096},
	}
}
