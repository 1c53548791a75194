package core

import (
	"sort"

	"weakestfd/internal/fd"
	"weakestfd/internal/memory"
	"weakestfd/internal/sim"
)

// Candidate extractors for the Theorem 1/5 adversary experiments: natural
// attempts at computing Ω^f from Υ^f. Theorem 1/5 say every attempt fails;
// the adversary demonstrates how each of these does.

// ComplementExtractor publishes the complement of the Υ^f output, padded
// with the lowest process ids up to size f. It is the reverse of the (valid)
// Ω^f → Υ^f complement reduction; the adversary defeats it by sticking with
// a constant Υ^f output whose complement it can crash.
func ComplementExtractor() Extractor {
	return Extractor{Name: "complement", Build: candidates(false, true)}
}

// StalenessExtractor publishes the f processes with the freshest heartbeats
// (highest shared counters, ties to lower ids) — the natural activity-based
// guess, and the style of reduction that does work for Υ¹ → Ω in E_1
// (Section 5.3). For f ≥ 2 the adversary defeats it by always running
// exactly the processes the candidate excluded, making yesterday's stale
// processes today's freshest, forever.
func StalenessExtractor() Extractor {
	return Extractor{Name: "staleness", Build: candidates(true, false)}
}

// HybridExtractor uses the complement when the Υ^f output is a proper
// subset of Π and falls back to heartbeat freshness when it is Π — mirroring
// the Υ¹ → Ω reduction's case split. Against it the adversary's constant
// proper-subset history reduces to the complement case.
func HybridExtractor() Extractor {
	return Extractor{Name: "hybrid", Build: candidates(true, true)}
}

// keyGuess names a candidate's published Ω^f guesses.
var keyGuess = sim.KeyOf("omegaf-guess")

// candidates returns the Build function of a candidate that, every
// iteration, writes a fresh heartbeat (when heartbeat is set), queries Υ^f
// (when query is set) and publishes a guess: the padded complement of the
// Υ^f output — unless heartbeats are kept and the output is Π — else the f
// freshest heartbeats, read by a collect.
func candidates(heartbeat, query bool) func(n, f int, upsilon sim.Oracle) ([]sim.StepMachine, *memory.Array[sim.Set]) {
	return func(n, f int, upsilon sim.Oracle) ([]sim.StepMachine, *memory.Array[sim.Set]) {
		c := &candidate{n: n, f: f, out: memory.NewArray[sim.Set](keyGuess, n)}
		if heartbeat {
			c.hb = memory.NewArray[int64](keyHeartbeats, n)
		}
		if query {
			c.upsilon = upsilon
		}
		machines := make([]sim.StepMachine, n)
		for i := range machines {
			machines[i] = &candidateMachine{c: c, beats: make([]int64, n)}
		}
		return machines, c.out
	}
}

// candidate is the shared state of one candidate-extractor run.
type candidate struct {
	n, f    int
	upsilon sim.Oracle // nil: the candidate never queries Υ^f
	hb      *memory.Array[int64]
	out     *memory.Array[sim.Set]
}

const (
	cWriteHB  uint8 = iota // publish a fresh heartbeat
	cQuery                 // query Υ^f
	cCollect               // read one heartbeat register
	cWriteOut              // publish the guess
)

type candidateMachine struct {
	c     *candidate
	me    sim.PID
	ts    int64
	beats []int64
	j     int
	guess sim.Set
	log   *sim.AccessLog
	seam  *sim.QuerySeam
	pc    uint8
}

func (m *candidateMachine) Init(ctx sim.MachineContext) {
	m.me, m.log, m.seam = ctx.ID, ctx.Log, ctx.Queries
	m.pc = m.first()
}

// first is the operation that opens every iteration.
func (m *candidateMachine) first() uint8 {
	if m.c.hb != nil {
		return cWriteHB
	}
	return cQuery
}

func (m *candidateMachine) Decision() sim.Value { return 0 }

func (m *candidateMachine) Step(t sim.Time) sim.MachineStatus {
	c := m.c
	switch m.pc {
	case cWriteHB:
		m.ts++
		c.hb.DirectWrite(m.log, m.me, m.ts)
		m.j = 0
		if c.upsilon != nil {
			m.pc = cQuery
		} else {
			m.pc = cCollect
		}
	case cQuery:
		if u := fd.QueryAt[sim.Set](m.seam, c.upsilon, m.me, t); c.hb == nil || u != sim.FullSet(c.n) {
			m.guess = padToSize(u.Complement(c.n), c.f, c.n)
			m.pc = cWriteOut
		} else {
			m.pc = cCollect
		}
	case cCollect:
		m.beats[m.j] = c.hb.DirectRead(m.log, sim.PID(m.j))
		if m.j++; m.j == c.n {
			m.guess = freshest(m.beats, c.f)
			m.pc = cWriteOut
		}
	case cWriteOut:
		c.out.DirectWrite(m.log, m.me, m.guess)
		m.pc = m.first()
	}
	return sim.MachineRunning
}

// AllExtractors returns the candidate catalogue.
func AllExtractors() []Extractor {
	return []Extractor{ComplementExtractor(), StalenessExtractor(), HybridExtractor()}
}

// padToSize grows s to exactly size by adding the lowest absent ids, or
// shrinks it by removing the highest members.
func padToSize(s sim.Set, size, n int) sim.Set {
	for i := 0; s.Len() < size && i < n; i++ {
		s = s.Add(sim.PID(i))
	}
	members := s.Members()
	for i := len(members) - 1; s.Len() > size && i >= 0; i-- {
		s = s.Remove(members[i])
	}
	return s
}

// freshest returns the f processes with the highest heartbeat counters,
// breaking ties toward lower ids.
func freshest(beats []int64, f int) sim.Set {
	idx := make([]int, len(beats))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if beats[idx[a]] != beats[idx[b]] {
			return beats[idx[a]] > beats[idx[b]]
		}
		return idx[a] < idx[b]
	})
	var s sim.Set
	for i := 0; i < f && i < len(idx); i++ {
		s = s.Add(sim.PID(idx[i]))
	}
	return s
}
