package explore

import "weakestfd/internal/sim"

// Trace classification: mapping a shrunk counterexample onto a library of
// named failure patterns. A shrunk artifact is a verified but opaque object —
// a step list plus a flip schedule — and the classifier is what turns it into
// evidence a human can read: it matches structural features of the witness
// run (the per-step shared-object access sets from sim.AccessLog, the
// flip/decide ordering, which crashes and flips the shrinker proved
// load-bearing by keeping them) against the patterns below and attaches the
// winning pattern's narrative to the artifact (schema 3) and to `fdlab
// replay` output.
//
// The features are deliberately structural, not mutant-aware: the classifier
// never looks at which mutation produced the run, only at what the run did.
// That is what makes the mutant zoo a real calibration: each mutant's
// documented kill pattern is a *prediction* that TestMutantZoo checks, and
// a classifier regression (or a mutant whose failure mode drifts)
// breaks the pairing visibly.

// FailurePattern is one named entry of the pattern library: a stable name
// (recorded in artifacts and asserted by the corpus tests), the structural
// signature that selects it, and the human-readable narrative replay prints.
type FailurePattern struct {
	// Name is the stable pattern identifier, e.g. "adopt-skipped-after-flip".
	Name string
	// Signature describes the structural features that select this pattern.
	Signature string
	// Narrative is the human-readable story of the failure class.
	Narrative string
}

// patternLibrary is the full taxonomy, in classification precedence order
// within each property. Names are stable: artifacts record them and the
// corpus regression tests assert them.
var patternLibrary = []FailurePattern{
	{
		Name:      "unproposed-decision",
		Signature: "validity violated: a decided value is outside the proposal set",
		Narrative: "A process decided a value nobody proposed. The commit path writes a corrupted value into the decision register, so the failure needs no adversarial schedule at all — the explorer's root fair run already exhibits it.",
	},
	{
		Name:      "crash-stalled-wait",
		Signature: "termination-of-correct violated; the shrunk witness keeps a crash",
		Narrative: "A correct process is parked forever in a wait loop whose exit condition counts a crashed process. The crash is load-bearing — the shrinker could not drop it, and the failure-free runs of the same schedule terminate — so the bug is a liveness dependence on a process the environment is allowed to kill.",
	},
	{
		Name:      "commit-starvation",
		Signature: "termination-of-correct violated on a failure-free witness",
		Narrative: "Correct processes loop without ever committing although nobody crashed: successive rounds keep invalidating each other's converge attempts and no commit lands within the budget.",
	},
	{
		Name:      "empty-detector-output",
		Signature: "upsilon-sanity violated: the settled output is the empty set",
		Narrative: "The emulated detector's outputs settled on ∅, which is outside the Υ range — every legal Υ^f output is a non-empty process set. The reduction's output switch is writing something other than φ_D's extracted set.",
	},
	{
		Name:      "stale-leader-latch",
		Signature: "upsilon-sanity violated: settled output equals the correct set, and the witness keeps a flip",
		Narrative: "A pre-stabilization leader change never propagated: the reduction latched its first detector query and kept republishing it, so after the underlying Ω source stabilized the extraction still computed the complement of the stale leader — exactly the correct set, the one value Υ^f may never settle on. Both the flip and the crash are load-bearing: stable-from-0 histories latch the true leader, and without the crash the latched complement is a legal strict subset of correct.",
	},
	{
		Name:      "correct-set-output",
		Signature: "upsilon-sanity violated: settled output equals the correct set on a stable-from-0 witness",
		Narrative: "The outputs settled on the correct set itself with no detector instability needed: the reduction's output switch publishes the full candidate set instead of φ_D's extracted set, so under a failure-free pattern the emulation stabilizes on correct — forbidden for Υ^f.",
	},
	{
		Name:      "undersized-output",
		Signature: "upsilon-sanity violated: settled output breaks the Υ^f range (size or membership)",
		Narrative: "The settled output is outside the Υ^f range — too few processes (below n+1−f) or not a subset of Π — without equalling the correct set. The emulation is publishing a set the detector specification can never output.",
	},
	{
		Name:      "adopt-skipped-after-flip",
		Signature: "agreement violated; some process's round-indexed accesses skip a round; the witness keeps a flip",
		Narrative: "A schedule-controlled detector output switch made a round's re-query disagree with its entry query, and instead of writing Stable[r] and adopting D[r] the process skipped the round's converge entirely: its access trace jumps a round index, it escapes with a stale value and solo-commits it in a round the others never contaminate, while another process solo-commits a different value a round behind. The flip is load-bearing — stable-from-0 histories make both query sites agree and the skip is dead code.",
	},
	{
		Name:      "adopt-skipped-on-change",
		Signature: "agreement violated; some process's round-indexed accesses skip a round; no oracle flip in the witness",
		Narrative: "A detector output change made a round's re-query disagree with its entry query and the process skipped the round's converge — but the change came from an emulated detector's ordinary shared-state evolution, not from an oracle flip schedule: the composition reaches the skip path with a zero switch budget, because the emulated module's output register is just shared state the schedule already controls.",
	},
	{
		Name:      "stale-snapshot-decide",
		Signature: "agreement violated; the decider's last read of a snapshot entry A[r][k] precedes another process's write of the same entry",
		Narrative: "A gladiator adopted the minimum of a snapshot scan taken below the overlap threshold: a concurrent snapshot write landed after the decider's last scan read, so two gladiators entered the sub-converge with minima over unrelated scans and the shed-down bound on distinct sub-round inputs no longer holds.",
	},
	{
		Name:      "wrong-adopt-order",
		Signature: "agreement violated; the decider's last read of a converge register precedes another process's write of the same register",
		Narrative: "A non-committing process kept its own value instead of adopting the minimum of the smallest committing set: under the lost-update interleaving — both sides read the converge registers before either's write lands — each side escapes the round believing it ran alone, later solo-commits its own value, and the decision register collects more distinct values than k. The chain-containment argument behind C-Agreement is exactly what the adopt rule was carrying.",
	},
	{
		Name:      "flip-gated-divergence",
		Signature: "agreement violated; the witness keeps a flip; no finer structural feature matched",
		Narrative: "The agreement failure needs a pre-stabilization detector output switch — the shrinker kept a flip — but the access trace matches no finer structural pattern: the divergence is gated by when queries straddle the flip rather than by a recognisable skip or missed write.",
	},
	{
		Name:      "unclassified",
		Signature: "no pattern signature matched",
		Narrative: "The violation reproduces but matches no known structural signature. Inspect the trace with `fdlab replay -trace` and consider growing the pattern library.",
	},
}

// Patterns returns the full pattern library, in classification precedence
// order. The slice is shared — callers must not mutate it.
func Patterns() []FailurePattern {
	return patternLibrary
}

// PatternByName looks a pattern up by its stable name, reporting whether it
// exists.
func PatternByName(name string) (FailurePattern, bool) {
	for _, p := range patternLibrary {
		if p.Name == name {
			return p, true
		}
	}
	return FailurePattern{}, false
}

func mustPattern(name string) FailurePattern {
	p, ok := PatternByName(name)
	if !ok {
		panic("explore: pattern library is missing " + name)
	}
	return p
}

// Classify matches the structural features of a (shrunk, recorded) witness
// run against the pattern library and returns the selected pattern. run must
// carry the witness configuration (Pattern/Oracle are the shrunk ones, so a
// surviving crash or flip is load-bearing by construction) and a populated
// Report.Accesses — the explorer re-executes the witness with an access log
// before classifying, and Artifact.Replay always records one.
func Classify(run *Run, property string) FailurePattern {
	switch property {
	case "validity":
		return mustPattern("unproposed-decision")
	case "termination-of-correct":
		if !run.Pattern.Faulty().IsEmpty() {
			return mustPattern("crash-stalled-wait")
		}
		return mustPattern("commit-starvation")
	case "upsilon-sanity":
		if run.StableOutput.IsEmpty() {
			return mustPattern("empty-detector-output")
		}
		if run.StableOutput == run.Pattern.Correct() {
			if len(run.Oracle.Flips) > 0 {
				return mustPattern("stale-leader-latch")
			}
			return mustPattern("correct-set-output")
		}
		return mustPattern("undersized-output")
	case "agreement":
		if roundSkipper(run) >= 0 {
			if len(run.Oracle.Flips) > 0 {
				return mustPattern("adopt-skipped-after-flip")
			}
			return mustPattern("adopt-skipped-on-change")
		}
		if deciderMissedWrite(run, isSnapshotObj) {
			return mustPattern("stale-snapshot-decide")
		}
		if deciderMissedWrite(run, isConvergeObj) {
			return mustPattern("wrong-adopt-order")
		}
		if len(run.Oracle.Flips) > 0 {
			return mustPattern("flip-gated-divergence")
		}
	}
	return mustPattern("unclassified")
}

// isSnapshotObj matches fig2's gladiator snapshot entries (A[r][k]/|U|).
func isSnapshotObj(key sim.ObjKey) bool { return key.Kind() == sim.ObjGladiator }

// isConvergeObj matches k-converge snapshot cells at any nesting level
// (nconv[r][k]/param.A[i], gconv…, fconv…).
func isConvergeObj(key sim.ObjKey) bool { return key.Kind() == sim.ObjConverge }

// roundIndexedObj reports whether an access-log object carries a protocol
// round index, and isolates it. These are the per-round protocol objects —
// decision-estimate and stability registers, converge registers, snapshot
// entries — whose access pattern reveals which rounds a process actually
// executed. Detector history objects, the plain decision register D, and
// the extraction's registers are excluded: only the agreement protocols'
// round counters are contiguous by construction.
func roundIndexedObj(key sim.ObjKey) (round int, ok bool) {
	switch key.Kind() {
	case sim.ObjRound, sim.ObjConverge, sim.ObjGladiator:
		return key.Round()
	}
	return 0, false
}

// roundSkipper scans the run's access log for a process whose round-indexed
// accesses have a gap — it touched rounds r and r' > r+1 but never any round
// in between. The unmutated protocols advance their round counter by exactly
// one, so a gap is the structural fingerprint of a skipped round (e.g. the
// skip-on-change escape jumping r += 2). Returns the first skipping PID, or
// -1 when every process's round trace is contiguous (or there is no log).
func roundSkipper(run *Run) sim.PID {
	log := run.Report.Accesses
	if log == nil {
		return -1
	}
	var seen [sim.MaxProcs]map[int]bool
	for i := 0; i < log.Steps(); i++ {
		pid, accs := log.Step(i)
		for _, a := range accs {
			if r, ok := roundIndexedObj(log.Key(a.Obj)); ok {
				if seen[pid] == nil {
					seen[pid] = make(map[int]bool)
				}
				seen[pid][r] = true
			}
		}
	}
	for p := range seen {
		rounds := seen[p]
		if len(rounds) < 2 {
			continue
		}
		lo, hi := -1, -1
		//lint:fdlint determinism -- min/max over the key set: the result is independent of iteration order
		for r := range rounds {
			if lo < 0 || r < lo {
				lo = r
			}
			if r > hi {
				hi = r
			}
		}
		for r := lo; r <= hi; r++ {
			if !rounds[r] {
				return sim.PID(p)
			}
		}
	}
	return -1
}

// deciderMissedWrite reports whether some deciding process's *last* read of
// an object selected by match is followed, later in the trace, by a
// different process's write of the same object — the decider acted on a
// value that was superseded before the race resolved. This is the shared
// fingerprint of the adopt-order and stale-snapshot failures: the decision
// was computed from converge or snapshot state another process went on to
// overwrite.
func deciderMissedWrite(run *Run, match func(sim.ObjKey) bool) bool {
	log := run.Report.Accesses
	if log == nil || run.Report.Decided == nil {
		return false
	}
	// lastRead[p][obj] = step index of p's last read of obj (matching only).
	type key struct {
		p   sim.PID
		obj sim.ObjID
	}
	lastRead := make(map[key]int)
	for i := 0; i < log.Steps(); i++ {
		pid, accs := log.Step(i)
		for _, a := range accs {
			if a.Kind == sim.AccessRead && match(log.Key(a.Obj)) {
				lastRead[key{pid, a.Obj}] = i
			}
		}
	}
	//lint:fdlint determinism -- existential check over deciders: the boolean result is independent of iteration order
	for p := range run.Report.Decided {
		for i := 0; i < log.Steps(); i++ {
			pid, accs := log.Step(i)
			if pid == p {
				continue
			}
			for _, a := range accs {
				if a.Kind != sim.AccessWrite || !match(log.Key(a.Obj)) {
					continue
				}
				if ri, ok := lastRead[key{p, a.Obj}]; ok && ri < i {
					return true
				}
			}
		}
	}
	return false
}
