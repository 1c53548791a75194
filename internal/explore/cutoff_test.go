package explore

import (
	"reflect"
	"testing"

	"weakestfd/internal/sim"
)

// TestAnalyzeCutoffMatchesFullWalk checks analyze's saturation cutoff and
// its on-demand tail read against a walk of every complete run. On each run
// of three configurations, all with joins on and a flipping history, it
// runs analyze as the search does, then rewinds the stack's wakeup
// sequences and pruned count and walks the complete run: the joined run's
// cached tail spliced into the log, and analyze given the run's length as
// its h, so it never stops early. Both must queue identical wakeup
// sequences at every stack node and count the same pruned schedules. The
// steps analyze walks are pinned beside the complete runs' steps, so a
// cutoff that stops firing fails here too; on the extract-omega
// configuration it walks 5.3% of them.
func TestAnalyzeCutoffMatchesFullWalk(t *testing.T) {
	cases := []struct {
		cfg          Config
		label        string
		runs, joined int64
		walked, full int64
	}{
		{Config{System: ExtractOmegaSystem(3), MaxDepth: 18, Budget: 768, SwitchBudget: 1},
			"failure-free(n=3)/leader=p1 pre[{p2}<2]", 611, 255, 24958, 469248},
		{Config{System: Fig1System(3), MaxDepth: 12, Budget: 2048, SwitchBudget: 1},
			"failure-free(n=3)/U={p1,p3} pre[{p1}<14]", 1270, 726, 22659, 41350},
		{Config{System: ComposedSystem(2), MaxDepth: 24, Budget: 4096, SwitchBudget: 1},
			"failure-free(n=2)/leader=p1 pre[{p2}<14]", 119, 51, 4534, 7429},
	}
	for _, tc := range cases {
		cfg := tc.cfg.withDefaults()
		job := configJob(t, cfg, tc.label)
		e := &explorer{cfg: cfg, seen: make(map[string]bool)}
		var walked, full int64
		mismatches := 0
		s := e.search(job.Pattern, job.Oracle, func(s *srcSearch) {
			before, pruned := wakeups(s.stack), s.pruned
			walked += int64(s.analyze(len(s.stack)))
			got, gotPruned := wakeups(s.stack), s.pruned
			for i := range s.stack {
				s.stack[i].wut = before[i]
			}
			s.pruned = pruned
			spliceTail(s)
			full += int64(s.analyze(s.log.Steps()))
			if want := wakeups(s.stack); !reflect.DeepEqual(got, want) || gotPruned != s.pruned {
				if mismatches == 0 {
					t.Errorf("%s: run %d: cutoff queued %v and pruned %d; the full walk queued %v and pruned %d",
						tc.label, s.runs, got, gotPruned-pruned, want, s.pruned-pruned)
				}
				mismatches++
			}
		})
		if s.joins != nil {
			s.joins.release()
		}
		if mismatches > 0 {
			t.Errorf("%s: %d of %d runs differ", tc.label, mismatches, s.runs)
		}
		if s.runs != tc.runs || s.joined != tc.joined {
			t.Errorf("%s: %d runs, %d joined; want %d, %d", tc.label, s.runs, s.joined, tc.runs, tc.joined)
		}
		if walked != tc.walked || full != tc.full {
			t.Errorf("%s: analyze walked %d of the runs' %d steps; want %d of %d", tc.label, walked, full, tc.walked, tc.full)
		}
	}
}

// configJob returns the configuration of cfg's sweep labelled label.
func configJob(t *testing.T, cfg Config, label string) Job {
	t.Helper()
	for _, j := range enumerateJobs(cfg) {
		if j.Label() == label {
			return j
		}
	}
	t.Fatalf("no configuration %s", label)
	return Job{}
}

// wakeups copies every stack node's pending wakeup sequences.
func wakeups(stack []srcNode) [][][]sim.PID {
	out := make([][][]sim.PID, len(stack))
	for i := range stack {
		out[i] = append([][]sim.PID(nil), stack[i].wut...)
	}
	return out
}

// spliceTail appends the rest of a joined run's cached tail to the log, so
// the full walk reads the complete run from the log alone.
func spliceTail(s *srcSearch) {
	for i := s.log.Steps(); i < s.steps(); i++ {
		s.joins.readStep(&s.tail, i-s.horizon, s.log)
	}
}
