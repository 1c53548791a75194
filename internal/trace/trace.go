// Package trace summarizes what a run's steps did: how many steps each
// process took and which kinds of shared-object access those steps made. It
// reads the run's sim.AccessLog, so a traced run is an ordinary machine run
// with a log attached — plus, for detector queries to show up as reads of
// the history object, a sim.QuerySeam with the run's histories registered.
// It powers the -trace flag of cmd/setagree and white-box tests that assert
// protocols take the *kinds* of steps the paper's pseudocode prescribes.
package trace

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"weakestfd/internal/sim"
)

// Summary aggregates a recorded run.
type Summary struct {
	// Total is the number of recorded steps.
	Total int64
	// ByProc counts steps per process, indexed by PID, for every process of
	// the system: a process that took no step counts 0.
	ByProc []int64
	// ByClass counts steps per step class (see StepClass).
	ByClass map[string]int64
}

// Summarize aggregates the steps recorded in log by a system of n
// processes into per-process and per-class counts.
func Summarize(log *sim.AccessLog, n int) Summary {
	s := Summary{ByProc: make([]int64, n), ByClass: make(map[string]int64)}
	for i := 0; i < log.Steps(); i++ {
		p, accs := log.Step(i)
		s.Total++
		s.ByProc[p]++
		s.ByClass[StepClass(log, accs)]++
	}
	return s
}

// NoAccess is the class of a step that touched no shared object, such as a
// no-op step.
const NoAccess = "(no access)"

// StepClass returns the structural class of a step with the given access
// set: its distinct accesses, rendered as in sim.AccessLog.AccessString and
// collapsed by LabelClass, in the order first made. A write of register
// D[3] classes as "W(D[·])", and an atomic scan of snapshot nconv[2][0]/3.A,
// which reads every cell, as "R(nconv[·][·]/·.A[·])".
func StepClass(log *sim.AccessLog, accs []sim.Access) string {
	if len(accs) == 0 {
		return NoAccess
	}
	var classes []string
	for _, a := range accs {
		c := LabelClass(a.Kind.String() + "(" + log.ObjName(a.Obj) + ")")
		if !slices.Contains(classes, c) {
			classes = append(classes, c)
		}
	}
	return strings.Join(classes, " ")
}

// LabelClass collapses an object name or access label to its structural
// class: indices inside brackets and trailing round/sub-round decorations
// are replaced by "·", so "D[3]" and "D[17]" both class as "D[·]", and
// "nconv[2][5]/3.A" classes as "nconv[·][·]/·.A".
func LabelClass(label string) string {
	var b strings.Builder
	i := 0
	for i < len(label) {
		switch c := label[i]; {
		case c == '[':
			b.WriteString("[·]")
			for i < len(label) && label[i] != ']' {
				i++
			}
			i++ // skip ']'
		case c == '/':
			b.WriteString("/·")
			i++
			for i < len(label) && label[i] >= '0' && label[i] <= '9' {
				i++
			}
		case c >= '0' && c <= '9':
			b.WriteString("·")
			for i < len(label) && label[i] >= '0' && label[i] <= '9' {
				i++
			}
		default:
			b.WriteByte(c)
			i++
		}
	}
	return b.String()
}

// String renders the summary, step classes sorted by descending count.
func (s Summary) String() string {
	type kv struct {
		class string
		n     int64
	}
	classes := make([]kv, 0, len(s.ByClass))
	for c, n := range s.ByClass {
		classes = append(classes, kv{c, n})
	}
	sort.Slice(classes, func(i, j int) bool {
		if classes[i].n != classes[j].n {
			return classes[i].n > classes[j].n
		}
		return classes[i].class < classes[j].class
	})
	var b strings.Builder
	fmt.Fprintf(&b, "steps: %d\n", s.Total)
	for p, n := range s.ByProc {
		fmt.Fprintf(&b, "  %v: %d\n", sim.PID(p), n)
	}
	b.WriteString("by step class:\n")
	for _, c := range classes {
		fmt.Fprintf(&b, "  %-32s %d\n", c.class, c.n)
	}
	return b.String()
}
