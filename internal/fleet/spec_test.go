package fleet

import (
	"strings"
	"testing"
)

// TestSpecConfigRefusesFullDepthTermination: a branch horizon at the step
// budget leaves no fair tail, so termination-of-correct would report starved
// runs as liveness failures. Spec.Config refuses that combination and
// accepts a full-depth horizon for systems that check safety only.
func TestSpecConfigRefusesFullDepthTermination(t *testing.T) {
	cases := []struct {
		system   string
		maxDepth int
		budget   int64
		refused  bool
	}{
		{"fig1", 0, 2048, true},
		{"fig1", 0, 0, true},       // the default budget, 4096
		{"fig1", 2048, 2048, true}, // horizon equal to the budget
		{"fig1", 5000, 2048, true}, // beyond it
		{"fig1", 4096, 0, true},    // equal to the default budget
		{"fig1", 4095, 0, false},   // one step of fair tail
		{"fig1", 24, 2048, false},
		{"fig1-broken-adopt", 0, 4096, true},
		{"fig1-broken-adopt", 24, 4096, false},
		{"fig2", 0, 2048, true},
		{"fig2-starved-wait", 0, 2048, true},
		{"extract-omega", 0, 768, false}, // upsilon-sanity only
		{"composed", 0, 4096, false},     // safety properties only
		{"timed-composed", 0, 4096, false},
	}
	for _, c := range cases {
		s := Spec{System: c.system, N: 2, MaxDepth: c.maxDepth, Budget: c.budget}
		_, err := s.Config()
		switch {
		case c.refused && err == nil:
			t.Errorf("%s -max-depth %d -budget %d: accepted a horizon with no fair tail", c.system, c.maxDepth, c.budget)
		case c.refused && !strings.Contains(err.Error(), "-max-depth"):
			t.Errorf("%s -max-depth %d -budget %d: error %q does not name -max-depth", c.system, c.maxDepth, c.budget, err)
		case !c.refused && err != nil:
			t.Errorf("%s -max-depth %d -budget %d: %v", c.system, c.maxDepth, c.budget, err)
		}
	}
}
