package main

import (
	"errors"
	"fmt"
	"strconv"

	"weakestfd"
	"weakestfd/internal/check"
	"weakestfd/internal/converge"
	"weakestfd/internal/core"
	"weakestfd/internal/fd"
	"weakestfd/internal/lab"
	"weakestfd/internal/lab/scenarios"
	"weakestfd/internal/sim"
)

// runFamily expands one scenario family and drives it through the lab
// engine's worker pool. The returned summaries are deterministic in (family,
// seeds) — independent of the worker count.
func runFamily(m lab.Matrix, workers int) []lab.ScenarioSummary {
	return lab.Run(m.Expand(), lab.Options{Workers: workers}).Scenarios
}

// atoi converts an axis value that is numeric by construction.
func atoi(s string) int {
	n, err := strconv.Atoi(s)
	if err != nil {
		panic(fmt.Sprintf("paperbench: non-numeric axis value %q", s))
	}
	return n
}

// runE1 sweeps the Figure 1 protocol — system size × failure pattern × Υ
// stabilization time × schedule — through the lab engine, reporting step
// counts and the number of distinct decisions (the paper's bound: ≤ n).
func runE1(w *tableWriter, seeds, workers int) {
	w.setHeader("n+1", "pattern", "Υ stabilize", "schedule", "p50 steps", "p99 steps", "max distinct", "bound", "ok")
	for _, s := range runFamily(scenarios.Fig1(seeds), workers) {
		n := atoi(s.Params["n"])
		steps := s.Metric("steps")
		distinct := int(s.Metric("distinct").Max)
		w.addRow(n, s.Params["pattern"], s.Params["stabilize"], s.Params["schedule"],
			int64(steps.P50), int64(steps.P99), distinct, n-1,
			s.Failed == 0 && distinct <= n-1)
	}
	w.note("paper claim: every run terminates with ≤ n distinct proposed values (Theorem 2)")
}

// runE2 sweeps the Figure 2 protocol over the resilience grid through the
// lab engine.
func runE2(w *tableWriter, seeds, workers int) {
	w.setHeader("n+1", "f", "crashes", "p50 steps", "max distinct", "bound", "ok")
	for _, s := range runFamily(scenarios.Fig2(seeds), workers) {
		f := atoi(s.Params["f"])
		distinct := int(s.Metric("distinct").Max)
		w.addRow(s.Params["n"], f, s.Params["crashes"], int64(s.Metric("steps").P50),
			distinct, f, s.Failed == 0 && distinct <= f)
	}
	w.note("paper claim: f-set agreement in E_f using Υ^f and registers (Theorem 6)")
}

// runE3 extracts Υ^f from each stable detector through the lab engine and
// reports the extraction's stabilization point.
func runE3(w *tableWriter, seeds, workers int) {
	w.setHeader("source D", "pattern", "stable-set size", "p50 stabilized-at", "legal")
	for _, s := range runFamily(scenarios.Extraction(seeds), workers) {
		w.addRow(s.Params["source"], s.Params["pattern"], int(s.Metric("stable-size").Max),
			int64(s.Metric("stable-from").P50), s.Failed == 0)
	}
	w.note("paper claim: any stable f-non-trivial D yields Υ^f via Figure 3 (Theorem 10)")
}

// runE4 runs the Theorem 1 adversary against every candidate extractor.
func runE4(w *tableWriter, _, _ int) {
	w.setHeader("n+1", "candidate", "forced switches", "stuck", "violation witness", "falsified")
	for _, n := range []int{4, 6, 8} {
		for _, ext := range core.AllExtractors() {
			res := core.RunAdversary(core.AdversaryConfig{
				N: n, F: n - 1,
				Extractor: ext, TargetSwitches: 30, Budget: 1 << 22,
			})
			witness := "-"
			if res.Violation != nil && res.Violation.Err != nil {
				witness = fmt.Sprintf("crash %v", res.Violation.StableL)
			}
			w.addRow(n, ext.Name, res.Switches, res.Stuck, witness, res.Falsified(30))
		}
	}
	w.note("paper claim: every Ωn-from-Υ algorithm has a run with non-stabilizing output (Theorem 1)")
}

// runE5 is the f-resilient generalization of E4, driven as the lab engine's
// adversary family.
func runE5(w *tableWriter, _, workers int) {
	w.setHeader("candidate", "n+1", "resilience", "forced switches", "stuck", "falsified")
	for _, s := range runFamily(scenarios.Adversary(), workers) {
		w.addRow(s.Params["candidate"], s.Params["n"], s.Params["resilience"],
			int64(s.Metric("switches").Max), s.Metric("stuck").Max == 1,
			s.Failed == 0 && s.Metric("falsified").Min == 1)
	}
	w.note("paper claim: Υ^f is strictly weaker than Ω^f for 2 ≤ f ≤ n (Theorem 5)")
}

// runE6 checks the two-process equivalence Υ ≡ Ω in both directions.
func runE6(w *tableWriter, seeds, _ int) {
	w.setHeader("direction", "pattern", "seeds ok", "stable output example")
	patterns := []struct {
		name string
		p    sim.Pattern
	}{
		{"failure-free", sim.FailFree(2)},
		{"p1 crashes", sim.CrashPattern(2, map[sim.PID]sim.Time{0: 30})},
		{"p2 crashes", sim.CrashPattern(2, map[sim.PID]sim.Time{1: 30})},
	}
	for _, pat := range patterns {
		okA, okB := 0, 0
		var exA, exB string
		for seed := 0; seed < seeds; seed++ {
			omega := fd.NewOmega(pat.p, 60, int64(seed))
			ups := core.ComplementOfOmega(omega, 2)
			if v, _, err := fd.CheckStable(ups, pat.p, 400, core.Upsilon(2).Legal(pat.p)); err == nil {
				okA++
				exA = fmt.Sprint(v)
			}
			upsilon := core.Upsilon(2).History(pat.p, 60, int64(seed))
			om := core.OmegaFromUpsilon2(upsilon)
			if v, _, err := fd.CheckStable(om, pat.p, 400, fd.OmegaLegal(pat.p)); err == nil {
				okB++
				exB = fmt.Sprint(v)
			}
		}
		w.addRow("Ω → Υ (complement)", pat.name, fmt.Sprintf("%d/%d", okA, seeds), exA)
		w.addRow("Υ → Ω (compl./self)", pat.name, fmt.Sprintf("%d/%d", okB, seeds), exB)
	}
	w.note("paper claim: in a system of 2 processes, Υ and Ω are equivalent (Section 4)")
}

// runE7 runs the Υ¹ → Ω reduction in E_1.
func runE7(w *tableWriter, seeds, _ int) {
	w.setHeader("pattern", "Υ¹ stable set", "elected leader", "leader correct", "ok/seeds")
	n := 4
	cases := []struct {
		name   string
		p      sim.Pattern
		stable sim.Set
	}{
		{"failure-free, U=Π−{p1}", sim.FailFree(n), sim.SetOf(0).Complement(n)},
		{"p3 crashes, U=Π", sim.CrashPattern(n, map[sim.PID]sim.Time{2: 120}), sim.FullSet(n)},
		{"p1 crashes, U=Π", sim.CrashPattern(n, map[sim.PID]sim.Time{0: 120}), sim.FullSet(n)},
	}
	for _, tc := range cases {
		ok := 0
		var leader sim.PID
		for seed := 0; seed < seeds; seed++ {
			spec := core.UpsilonF(n, 1)
			h := spec.HistoryWithStable(tc.p, 100, int64(seed), tc.stable)
			red := core.NewUpsilon1ToOmega(n, h)
			machines := make([]sim.StepMachine, n)
			for i := range machines {
				machines[i] = red.Machine()
			}
			trace := check.NewOutputTrace[string](n, func(i sim.PID) string {
				if v := red.OutputAt(i); v.OK {
					return v.V.String()
				}
				return ""
			})
			_, err := sim.RunMachines(sim.Config{
				Pattern: tc.p, Schedule: sim.NewRandom(int64(seed)),
				Budget: 40_000, StopWhen: trace.Hook(),
			}, machines)
			if err != nil && !errors.Is(err, sim.ErrBudgetExhausted) {
				continue
			}
			if s, _, err := trace.StableFrom(tc.p.Correct()); err == nil {
				for _, q := range tc.p.Correct().Members() {
					if q.String() == s {
						leader = q
						ok++
						break
					}
				}
			}
		}
		w.addRow(tc.name, tc.stable, leader, tc.p.Correct().Has(leader), fmt.Sprintf("%d/%d", ok, seeds))
	}
	w.note("paper claim: Ω = Ω¹ is extractable from Υ¹ in E_1 (Section 5.3)")
}

// runE8 assembles the Corollary 3/4 separation table.
func runE8(w *tableWriter, seeds, _ int) {
	w.setHeader("claim", "evidence", "holds")
	// (a) Ωn → Υ works (complement reduction, spec-checked).
	n := 5
	okA := 0
	for seed := 0; seed < seeds; seed++ {
		p := sim.CrashPattern(n, map[sim.PID]sim.Time{1: 40})
		omegaN := fd.NewOmegaF(p, n-1, 80, int64(seed))
		ups := core.ComplementOfOmegaF(omegaN, n)
		if _, _, err := fd.CheckStable(ups, p, 400, core.Upsilon(n).Legal(p)); err == nil {
			okA++
		}
	}
	w.addRow("Υ is weaker than Ωn", fmt.Sprintf("complement reduction legal %d/%d seeds", okA, seeds), okA == seeds)

	// (b) Υ solves n-set agreement (Fig 1).
	okB := 0
	for seed := 0; seed < seeds; seed++ {
		res, err := weakestfd.SolveSetAgreement(weakestfd.SetAgreementConfig{
			N: n, Proposals: proposals(n),
			CrashAt: map[int]int64{1: 20, 3: 35}, StabilizeAt: 150,
			Seed: int64(seed), Budget: 1 << 22,
		})
		if err == nil && len(res.Distinct) <= n-1 {
			okB++
		}
	}
	w.addRow("Υ solves n-set agreement", fmt.Sprintf("Figure 1 correct %d/%d seeds", okB, seeds), okB == seeds)

	// (c) Υ cannot be transformed into Ωn (Theorem 1 adversary).
	allFalsified := true
	for _, ext := range core.AllExtractors() {
		res := core.RunAdversary(core.AdversaryConfig{
			N: n, F: n - 1, Extractor: ext, TargetSwitches: 20, Budget: 1 << 22,
		})
		if !res.Falsified(20) {
			allFalsified = false
		}
	}
	w.addRow("Ωn is not weaker than Υ", "all candidate extractors falsified (Theorem 1)", allFalsified)

	// (d) The boosted-consensus side of Corollary 4: n+1-process consensus
	// from n-process consensus objects, using Ωn.
	okD := 0
	for seed := 0; seed < seeds; seed++ {
		res, err := weakestfd.SolveSetAgreement(weakestfd.SetAgreementConfig{
			N: n, Algorithm: weakestfd.OmegaNBoosted, Proposals: proposals(n),
			CrashAt: map[int]int64{1: 20}, StabilizeAt: 150,
			Seed: int64(seed), Budget: 1 << 22,
		})
		if err == nil && len(res.Distinct) == 1 {
			okD++
		}
	}
	w.addRow("Ωn boosts n-consensus to n+1", fmt.Sprintf("consensus via n-process objects %d/%d seeds", okD, seeds), okD == seeds)

	// (e) The composition: set agreement with an arbitrary stable detector
	// through Figure 3 ∘ Figure 1 (Theorem 10 made operational).
	okE := 0
	for seed := 0; seed < seeds; seed++ {
		res, err := weakestfd.SolveWithStableDetector(weakestfd.ComposeConfig{
			N: n, From: weakestfd.StableEvPerfect, Proposals: proposals(n),
			CrashAt: map[int]int64{1: 30}, StabilizeAt: 120, Seed: int64(seed),
		})
		if err == nil && len(res.Distinct) <= n-1 {
			okE++
		}
	}
	w.addRow("any stable D ⇒ set agreement", fmt.Sprintf("Fig 3 ∘ Fig 1 from stable ◇P, %d/%d seeds", okE, seeds), okE == seeds)
	w.note("⇒ Ωn is not the weakest detector for n-resilient n-set agreement (Corollary 3)")
	w.note("⇒ set agreement from registers is strictly easier than consensus from n-consensus (Corollary 4)")
}

// runE9 demonstrates the impossibility baselines.
func runE9(w *tableWriter, _, _ int) {
	w.setHeader("configuration", "schedule", "budget", "decided", "matches theory")
	budget := int64(50_000)

	// FD-free attempt under lockstep: livelock.
	_, err := weakestfd.SolveSetAgreement(weakestfd.SetAgreementConfig{
		N: 4, Algorithm: weakestfd.AsyncAttempt, Proposals: proposals(4),
		Schedule: weakestfd.RoundRobinSchedule, Budget: budget,
	})
	w.addRow("no detector, 4 distinct values", "lockstep", budget, err == nil,
		errors.Is(err, weakestfd.ErrNoTermination))

	// FD-free attempt under a solo-friendly schedule: may decide (the
	// impossibility quantifies over *some* run).
	res, err := weakestfd.SolveSetAgreement(weakestfd.SetAgreementConfig{
		N: 4, Algorithm: weakestfd.AsyncAttempt, Proposals: proposals(4),
		Seed: 3, Budget: budget,
	})
	w.addRow("no detector, 4 distinct values", "random", budget, err == nil, err == nil && len(res.Distinct) <= 3)

	// Figure 1 with a spec-violating Υ (U = correct set): livelock.
	n := 4
	dummy := fd.Constant(sim.FullSet(n))
	g := core.NewFig1(n, dummy, converge.UseAtomic)
	machines := make([]sim.StepMachine, n)
	for i := range machines {
		machines[i] = g.Machine(sim.Value(100 + i))
	}
	rep, err2 := sim.RunMachines(sim.Config{Pattern: sim.FailFree(n), Schedule: sim.RoundRobin(), Budget: budget}, machines)
	w.addRow("Fig 1, Υ stuck on U = correct", "lockstep", budget, len(rep.Decided) > 0,
		err2 != nil && len(rep.Decided) == 0)

	// Control: legal Υ, same schedule: decides.
	res3, err3 := weakestfd.SolveSetAgreement(weakestfd.SetAgreementConfig{
		N: n, Proposals: proposals(n),
		Schedule: weakestfd.RoundRobinSchedule, Seed: 1, Budget: budget,
	})
	w.addRow("Fig 1, legal Υ (control)", "lockstep", budget, err3 == nil, err3 == nil && len(res3.Distinct) <= n-1)
	w.note("the adversarial schedule exhibits the impossibility; Υ's U ≠ correct clause restores liveness")
}

// runE10 reports the ablations.
func runE10(w *tableWriter, seeds, _ int) {
	w.setHeader("ablation", "configuration", "median steps", "ratio")
	// (a) snapshot implementation inside Figure 1.
	var atomicSteps, afekSteps stats
	for seed := 0; seed < seeds; seed++ {
		for _, reg := range []bool{false, true} {
			res, err := weakestfd.SolveSetAgreement(weakestfd.SetAgreementConfig{
				N: 4, Proposals: proposals(4), CrashAt: map[int]int64{1: 30},
				StabilizeAt: 100, Seed: int64(seed),
				RegistersOnly: reg, Budget: 1 << 23,
			})
			if err != nil {
				continue
			}
			if reg {
				afekSteps.add(res.Steps)
			} else {
				atomicSteps.add(res.Steps)
			}
		}
	}
	ratio := "-"
	if atomicSteps.median() > 0 {
		ratio = fmt.Sprintf("%.1fx", float64(afekSteps.median())/float64(atomicSteps.median()))
	}
	w.addRow("snapshot impl", "fig1 atomic snapshots", atomicSteps.median(), "1.0x")
	w.addRow("snapshot impl", "fig1 Afek registers-only", afekSteps.median(), ratio)

	// (b) decision latency vs Υ stabilization time, under worst-case legal
	// noise (Υ outputs correct(F) until ts — legal, maximally unhelpful).
	for _, ts := range []int64{0, 500, 5000} {
		var st stats
		for seed := 0; seed < seeds; seed++ {
			n := 5
			pattern := sim.FailFree(n)
			h := core.Upsilon(n).HistoryWorstCase(pattern, sim.Time(ts), int64(seed))
			g := core.NewFig1(n, h, converge.UseAtomic)
			machines := make([]sim.StepMachine, n)
			for i := range machines {
				machines[i] = g.Machine(sim.Value(100 + i))
			}
			rep, err := sim.RunMachines(sim.Config{
				Pattern: pattern, Schedule: sim.RoundRobin(), Budget: 1 << 23,
			}, machines)
			if err != nil {
				continue
			}
			st.add(rep.Steps)
		}
		w.addRow("Υ stabilization", fmt.Sprintf("worst-case noise, ts=%d", ts), st.median(), "-")
	}

	// (c) baseline comparison at equal task.
	for _, alg := range []weakestfd.Algorithm{weakestfd.UpsilonFig1, weakestfd.OmegaNBaseline, weakestfd.OmegaNBoosted} {
		var st stats
		for seed := 0; seed < seeds; seed++ {
			res, err := weakestfd.SolveSetAgreement(weakestfd.SetAgreementConfig{
				N: 5, Algorithm: alg, Proposals: proposals(5),
				CrashAt: map[int]int64{2: 25}, StabilizeAt: 120,
				Seed: int64(seed), Budget: 1 << 22,
			})
			if err != nil {
				continue
			}
			st.add(res.Steps)
		}
		w.addRow("detector strength", alg.String(), st.median(), "-")
	}
	w.note("registers-only costs O(n²) steps per snapshot op — same outcomes, higher step counts")
	w.note("decision latency tracks the detector's stabilization time under lockstep")
}

func proposals(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(100 + i)
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// runE11 implements Υ from heartbeats under partial synchrony, solves set
// agreement with it, and shows pure asynchrony defeating the implementation.
func runE11(w *tableWriter, seeds, _ int) {
	w.setHeader("configuration", "schedule", "outcome", "matches theory")

	// (a) Heartbeat Υ + Figure 1 under eventual synchrony: decides.
	okA := 0
	var st stats
	for seed := 0; seed < seeds; seed++ {
		res, err := weakestfd.SolveWithTimingAssumptions(weakestfd.TimedConfig{
			N: 5, Proposals: proposals(5), CrashAt: map[int]int64{1: 400},
			GST: 1_000, Bound: 8, Seed: int64(seed),
		})
		if err == nil && len(res.Distinct) <= 4 {
			okA++
			st.add(res.Steps)
		}
	}
	w.addRow("heartbeat Υ → Fig 1", "eventually synchronous",
		fmt.Sprintf("decided %d/%d seeds, median %d steps", okA, seeds, st.median()), okA == seeds)

	// (b) The heartbeat implementation alone under growing starvation
	// bursts: output changes forever (Υ is non-trivial, hence
	// unimplementable without timing).
	n := 3
	hb := core.NewHeartbeatUpsilon(n, 4)
	machines := make([]sim.StepMachine, n)
	for i := range machines {
		machines[i] = hb.Machine()
	}
	rr := sim.RoundRobin()
	var phase int
	var inPhase int64
	starving := true
	schedule := sim.Func(func(t sim.Time, enabled sim.Set) sim.PID {
		limit := int64(192) << uint(phase)
		if !starving {
			limit = 256
		}
		if inPhase >= limit {
			inPhase = 0
			if !starving {
				phase++
			}
			starving = !starving
		}
		inPhase++
		pool := enabled
		if starving {
			if rest := enabled.Remove(sim.PID(2)); !rest.IsEmpty() {
				pool = rest
			}
		}
		return rr.Next(t, pool)
	})
	changes := 0
	var prev sim.Set
	sampled := false
	_, _ = sim.RunMachines(sim.Config{
		Pattern:  sim.FailFree(n),
		Schedule: schedule,
		Budget:   80_000,
		StopWhen: func(_ sim.Time) bool {
			cur := hb.OutputAt(0)
			if sampled && cur != prev {
				changes++
			}
			prev = cur
			sampled = true
			return false
		},
	}, machines)
	w.addRow("heartbeat Υ alone", "growing starvation bursts",
		fmt.Sprintf("%d forced output changes (no stabilization)", changes), changes >= 6)
	w.note("timing assumptions yield Υ (Section 1); pure asynchrony defeats any implementation (Υ is non-trivial)")
}
