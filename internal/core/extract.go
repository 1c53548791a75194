package core

import (
	"weakestfd/internal/check"
	"weakestfd/internal/memory"
	"weakestfd/internal/sim"
)

// Phi is the map φ_D of Corollary 9: it carries each value d in the range of
// a stable f-non-trivial failure detector D to a pair (correct(σ), w(σ))
// where σ ∈ (Π × {d})* is *not* an f-resilient sample of D,
// |correct(σ)| ≥ n+1−f, and w(σ) is the length of the shortest prefix of σ
// containing all steps of the processes that appear only finitely often.
//
// The paper proves φ_D exists for every f-non-trivial D but does not
// construct it (the proof of Theorem 10 is non-constructive); to run the
// reduction one must exhibit φ_D per concrete detector — see PhiOmega,
// PhiOmegaF, PhiStableEvPerfect and PhiWitnessed in phi.go.
//
// Detector values must be comparable with == (true of every range used in
// this module: sim.PID and sim.Set).
type Phi func(d any) (s sim.Set, w int)

// Extraction is the paper's Figure 3: the reduction algorithm transforming
// any stable f-non-trivial failure detector D into Υ^f. Each process runs
// two interleaved tasks:
//
//	Task 1: query D and publish the value with an ever-increasing timestamp
//	        in the single-writer register R[i].
//	Task 2: proceed in rounds. Entering round r, set the emulated output to
//	        Π, read the current value d and compute (S, w) = φ_D(d). If
//	        S = Π, just watch for a differing report. Otherwise count
//	        "batches" — a batch completes when every process (including the
//	        faulty-to-be!) has published d at least twice since the last
//	        batch — up to w of them, or accept the shared flag Exited[r][j]
//	        = d from a process that already observed w batches; then set the
//	        emulated output to S and watch for a differing report. Any fresh
//	        report carrying a value ≠ d sets the shared flag Changed[r],
//	        which advances every process of round r to round r+1.
//
// Eventually D stabilizes on some d everywhere. If some process has crashed
// and the batches never complete, all correct processes output Π — legal,
// since correct ≠ Π. If the batches complete, all correct processes output
// S, and σ's non-sample property guarantees S ≠ correct: otherwise the very
// run at hand would exhibit σ as an f-resilient sample of D.
type Extraction struct {
	n   int
	d   sim.Oracle
	phi Phi
	// r holds the published (value, timestamp) reports.
	r *memory.Array[report]
	// out is the emulated Υ^f output, one register per process.
	out    *memory.Array[sim.Set]
	rounds *extractRounds
	// changedAt[i] is the time of the last step in which process i changed
	// its output (0 before its first change). Each output register has one
	// writer, which records the change as it writes (writeOutput), so no
	// one polls the registers.
	changedAt []sim.Time
}

type report struct {
	val any
	ts  int64
}

// StateFP implements sim.Fingerprinter for the explorer's state digests:
// reports live in shared registers, so their fingerprint must be a function
// of their content alone.
func (r report) StateFP() uint64 {
	return sim.StateFP(r.val)*0x100000001b3 ^ uint64(r.ts)
}

// NewExtraction builds the shared state of one Figure 3 run over n
// processes, extracting from detector history d via φ_D.
func NewExtraction(n int, d sim.Oracle, phi Phi) *Extraction {
	if phi == nil {
		panic("core: NewExtraction with nil Phi")
	}
	return &Extraction{
		n:         n,
		d:         d,
		phi:       phi,
		r:         memory.NewArray[report](keyReports, n),
		out:       memory.NewArray[sim.Set](keyUpsilonOut, n),
		rounds:    newExtractRounds(n),
		changedAt: make([]sim.Time, n),
	}
}

// The extraction's shared objects: the report array R, the emulated output
// array, and the per-round flags Changed[r] and Exited[r][j].
var (
	keyReports    = sim.KeyOf("R")
	keyUpsilonOut = sim.KeyOf("Υf-output")
	keyChanged    = sim.KeyOf("Changed")
	keyExited     = sim.KeyOf("Exited")
)

// OutputAt returns process i's current emulated Υ^f output; for inspection
// between steps (schedules, stop predicates, post-run checks) only.
func (e *Extraction) OutputAt(i sim.PID) sim.Set { return e.out.At(i).Inspect() }

// Outputs returns every process's current emulated Υ^f output, indexed by
// PID; for post-run inspection only.
func (e *Extraction) Outputs() []sim.Set {
	outs := make([]sim.Set, e.n)
	for i := range outs {
		outs[i] = e.OutputAt(sim.PID(i))
	}
	return outs
}

// StableFrom returns the common output of procs at the end of a run of the
// given number of steps, and the time after which none of them changed it.
// It reports what a check.OutputTrace sampling the outputs after every step
// would, errors included: the trace's first sample, at time 1, stamps every
// process, so the time is at least 1, and a run of no steps has no samples.
func (e *Extraction) StableFrom(procs sim.Set, steps int64) (sim.Set, sim.Time, error) {
	if steps == 0 {
		return sim.EmptySet, 0, check.ErrNoSamples
	}
	var outs [sim.MaxProcs]sim.Set
	for i := range e.n {
		outs[i] = e.OutputAt(sim.PID(i))
	}
	stable, from, err := check.Settled(outs[:e.n], e.changedAt, procs)
	if err != nil {
		return stable, from, err
	}
	return stable, max(from, 1), nil
}

// extractRounds lazily allocates the per-round shared flags of Figure 3:
// Changed[r] (a differing report was seen; advance) and Exited[r][j] (the
// value with which j exited the wait clause). Rounds count up from 1, so
// the rounds are indexed by number directly.
type extractRounds struct {
	n      int
	rounds []*extractRound
}

type extractRound struct {
	changed memory.Register[bool]
	exited  *memory.Array[memory.Opt[any]]
}

func newExtractRounds(n int) *extractRounds {
	return &extractRounds{n: n}
}

func (er *extractRounds) at(r int) (*memory.Register[bool], *memory.Array[memory.Opt[any]]) {
	for r >= len(er.rounds) {
		er.rounds = append(er.rounds, nil)
	}
	round := er.rounds[r]
	if round == nil {
		round = &extractRound{
			changed: *memory.NewRegister[bool](keyChanged.WithRound(r)),
			exited:  memory.NewArray[memory.Opt[any]](keyExited.WithRound(r), er.n),
		}
		er.rounds[r] = round
	}
	return &round.changed, round.exited
}
