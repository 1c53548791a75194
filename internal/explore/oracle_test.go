package explore

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"weakestfd/internal/sim"
)

// The ground-truth oracle. On a small instance it runs, for every
// configuration, every enabled-PID prefix of Config.MaxDepth steps under the
// fair round-robin tail: the schedule space the explorer claims to cover,
// with no reduction at all. Source-DPOR is then held to what that brute force
// finds:
//
//   - with and without joins, it reports every (configuration, property)
//     that some brute-force run violates;
//   - pure source-DPOR (NoHash) reaches every brute-force outcome: the
//     decision vector, the run error, and the extraction's outputs and
//     settledness;
//   - it runs no more schedules per configuration than the enumeration has
//     leaves.
//
// Pure source-DPOR does miss outcomes, for two known causes. Every miss is
// listed in oracleGapsFile with its cause, and the list must match exactly:
// a fault that loses coverage adds lines, a fix removes them. A miss is
// attributed to
//
//   - crash-time: a brute-force witness runs a process with a mid-run crash
//     time for more steps than any source run of the configuration does. A
//     process's last pre-crash step exists only if it is scheduled before
//     its absolute crash time, and no race in an explored run points at a
//     step that never ran, so the search never looks for it;
//   - horizon: pure source-DPOR reaches the outcome at the instance's deeper
//     horizon. A brute-force leaf restarts the fair tail at step MaxDepth,
//     a source run at the end of its forced prefix, so their tails differ.
//
// A miss with neither cause fails the test, and so does a missed violation
// that no listed miss of its configuration explains.

// oracleGapsFile lists every outcome pure source-DPOR misses on the oracle's
// instances, one tab-separated line each.
const oracleGapsFile = "testdata/oracle-gaps.txt"

// oracleCase is one ground-truth instance: cfg.MaxDepth is both the
// enumeration depth and the source-DPOR horizon, and deeper the horizon at
// which horizon misses must be reached.
type oracleCase struct {
	name   string
	cfg    Config
	deeper int
}

// oracleReport is the ground truth of one instance and how source-DPOR met
// it.
type oracleReport struct {
	// leaves counts the brute-force runs; violatingLeaves those violating
	// some property.
	leaves, violatingLeaves int64
	// violating holds the (configuration, property) keys some leaf violates,
	// sorted.
	violating []string
	// source and hash are the pure and joined source-DPOR sweeps.
	source, hash *Result
	// gaps are the outcomes pure source-DPOR misses, as oracleGapsFile
	// lines.
	gaps []string
}

// bfOutcome is one distinct outcome of a configuration's brute force.
type bfOutcome struct {
	// witness is the least leaf prefix reaching the outcome, in PID order.
	witness []sim.PID
	// maxSteps is the most steps each process takes in any leaf reaching
	// the outcome.
	maxSteps []int64
	// violates names the properties the outcome violates.
	violates []string
}

// bfTruth is one configuration's brute force.
type bfTruth struct {
	leaves, violatingLeaves int64
	outcomes                map[string]*bfOutcome
}

// outcomeOf renders what a completed run decided: the decision vector, the
// run error, and the extraction's final outputs and settledness.
func outcomeOf(r *Run) string {
	var b strings.Builder
	for p := 0; p < r.Pattern.N(); p++ {
		if v, ok := r.Report.Decided[sim.PID(p)]; ok {
			fmt.Fprintf(&b, "%d ", v)
		} else {
			b.WriteString("- ")
		}
	}
	if r.Err != nil {
		fmt.Fprintf(&b, "err=%q ", r.Err.Error())
	}
	if r.Outputs != nil {
		fmt.Fprintf(&b, "out=%v settled=%v", r.Outputs, r.OutputsSettled)
	}
	return strings.TrimSpace(b.String())
}

// bfNode is one level of the brute-force enumeration tree.
type bfNode struct {
	enabled, tried sim.Set
	chosen         sim.PID
}

// bruteForce runs every enabled-PID prefix of depth steps (fewer when the
// run ends first) of one configuration, each forced through a runRecord and
// closed by the fair round-robin tail, and hands each leaf run to leaf. A run
// forced into a shorter prefix learns the enabled sets down its tail; when
// its tail ran past depth, the completed prefix is run again so that its own
// tail starts at depth.
func bruteForce(sys System, job Job, depth int, budget int64, leaf func(prefix []sim.PID, run *Run)) {
	rec := &runRecord{}
	var stack []bfNode
	var prefix []sim.PID
	for {
		rec.reset(prefix)
		run := execute(sys, job.Pattern, job.Oracle, rec, budget, nil, nil)
		for i := len(stack); i < depth && i < len(rec.granted); i++ {
			g := rec.granted[i]
			stack = append(stack, bfNode{enabled: rec.enabled[i], tried: sim.EmptySet.Add(g), chosen: g})
		}
		if len(prefix) < len(stack) {
			for _, nd := range stack[len(prefix):] {
				prefix = append(prefix, nd.chosen)
			}
			if len(rec.granted) > len(stack) {
				rec.reset(prefix)
				run = execute(sys, job.Pattern, job.Oracle, rec, budget, nil, nil)
			}
		}
		leaf(prefix, run)
		for {
			if len(stack) == 0 {
				return
			}
			nd := &stack[len(stack)-1]
			if next := nd.enabled.Minus(nd.tried); !next.IsEmpty() {
				nd.chosen = next.Min()
				nd.tried = nd.tried.Add(nd.chosen)
				prefix = append(prefix[:len(stack)-1], nd.chosen)
				break
			}
			stack = stack[:len(stack)-1]
		}
	}
}

// groundTruth brute-forces every job of cfg on GOMAXPROCS goroutines.
func groundTruth(cfg Config, jobs []Job) []bfTruth {
	truths := make([]bfTruth, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				bt := bfTruth{outcomes: map[string]*bfOutcome{}}
				bruteForce(cfg.System, jobs[i], cfg.MaxDepth, cfg.Budget, func(prefix []sim.PID, run *Run) {
					bt.leaves++
					key := outcomeOf(run)
					o := bt.outcomes[key]
					if o == nil {
						o = &bfOutcome{witness: append([]sim.PID(nil), prefix...), maxSteps: make([]int64, run.Pattern.N())}
						for _, prop := range cfg.System.Properties() {
							if prop.Check(run) != nil {
								o.violates = append(o.violates, prop.Name())
							}
						}
						bt.outcomes[key] = o
					}
					if slices.Compare(prefix, o.witness) < 0 {
						o.witness = append(o.witness[:0], prefix...)
					}
					for p, n := range run.Report.StepsBy {
						o.maxSteps[p] = max(o.maxSteps[p], n)
					}
					if len(o.violates) > 0 {
						bt.violatingLeaves++
					}
				})
				truths[i] = bt
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	return truths
}

// recordingSystem wraps a System to record, per configuration, every
// outcome its runs reach and the most steps each process takes in any run.
type recordingSystem struct {
	System
	mu       sync.Mutex
	outcomes map[string]map[string]bool
	maxSteps map[string][]int64
}

func newRecordingSystem(sys System) *recordingSystem {
	return &recordingSystem{System: sys, outcomes: map[string]map[string]bool{}, maxSteps: map[string][]int64{}}
}

func (s *recordingSystem) Instantiate(pattern sim.Pattern, o OracleChoice) Instance {
	inst := s.System.Instantiate(pattern, o)
	finish := inst.Finish
	inst.Finish = func(r *Run) {
		if finish != nil {
			finish(r)
		}
		label, key := Job{Pattern: r.Pattern, Oracle: r.Oracle}.Label(), outcomeOf(r)
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.outcomes[label] == nil {
			s.outcomes[label] = map[string]bool{}
			s.maxSteps[label] = make([]int64, r.Pattern.N())
		}
		s.outcomes[label][key] = true
		for p, n := range r.Report.StepsBy {
			s.maxSteps[label][p] = max(s.maxSteps[label][p], n)
		}
	}
	return inst
}

// oracleSweep configures a source-DPOR sweep for comparison with the brute
// force: every violating configuration reported, and no shrinking, whose
// replays would reach schedules outside the search.
func oracleSweep(cfg Config, noHash bool) Config {
	cfg.NoHash = noHash
	cfg.MaxViolations = 1 << 20
	cfg.ShrinkBudget = -1
	return cfg
}

// runOracle brute-forces oc, sweeps it with source-DPOR with and without
// joins, and checks the three claims and the gap list.
func runOracle(t *testing.T, oc oracleCase) *oracleReport {
	t.Helper()
	cfg := oc.cfg.withDefaults()
	jobs := enumerateJobs(cfg)
	truths := groundTruth(cfg, jobs)

	rec := newRecordingSystem(cfg.System)
	pure := oracleSweep(cfg, true)
	pure.System = rec
	var mu sync.Mutex
	runs := map[string]int64{}
	pure.OnConfig = func(name string, n int64) {
		mu.Lock()
		defer mu.Unlock()
		runs[strings.TrimPrefix(name, cfg.System.Name()+"/")] = n
	}
	rep := &oracleReport{source: Explore(pure), hash: Explore(oracleSweep(cfg, false))}

	type miss struct {
		job     Job
		key     string
		o       *bfOutcome
		horizon bool // no witness runs a crashing process past its source-DPOR steps
	}
	var misses []miss
	var deepJobs []Job
	for i, jb := range jobs {
		bt, label := truths[i], jb.Label()
		rep.leaves += bt.leaves
		rep.violatingLeaves += bt.violatingLeaves
		if runs[label] > bt.leaves {
			t.Errorf("%s %s: source-DPOR ran %d schedules, more than the %d brute-force leaves", oc.name, label, runs[label], bt.leaves)
		}
		violated := map[string]bool{}
		deep := false
		for key, o := range bt.outcomes {
			for _, prop := range o.violates {
				violated[prop] = true
			}
			if rec.outcomes[label][key] {
				continue
			}
			m := miss{job: jb, key: key, o: o, horizon: true}
			for p, n := range o.maxSteps {
				if at := jb.Pattern.CrashAt(sim.PID(p)); at > 0 && at != sim.NoCrash && n > rec.maxSteps[label][p] {
					m.horizon = false
				}
			}
			deep = deep || m.horizon
			misses = append(misses, m)
		}
		if deep {
			deepJobs = append(deepJobs, jb)
		}
		for prop := range violated {
			rep.violating = append(rep.violating, jobViolationKey(jb, prop))
		}
	}
	sort.Strings(rep.violating)

	deep := newRecordingSystem(cfg.System)
	if len(deepJobs) > 0 && oc.deeper > 0 {
		dcfg := oracleSweep(cfg, true)
		dcfg.System, dcfg.MaxDepth = deep, oc.deeper
		ExploreJobs(dcfg, deepJobs)
	}
	explained := map[string]bool{} // the configuration|property keys listed misses violate
	for _, m := range misses {
		cause := "crash-time"
		if m.horizon {
			cause = "horizon"
			if !deep.outcomes[m.job.Label()][m.key] {
				cause = "unexplained"
				t.Errorf("%s %s: pure source-DPOR misses %q (witness %v) at depth %d and at %d, and no witness runs a crashing process past its source-DPOR steps",
					oc.name, m.job.Label(), m.key, m.o.witness, cfg.MaxDepth, oc.deeper)
			}
		}
		violates := "-"
		if len(m.o.violates) > 0 {
			violates = strings.Join(m.o.violates, ",")
			for _, prop := range m.o.violates {
				explained[jobViolationKey(m.job, prop)] = true
			}
		}
		rep.gaps = append(rep.gaps, strings.Join([]string{oc.name, m.job.Label(), cause, violates, m.key, fmt.Sprint(m.o.witness)}, "\t"))
	}
	sort.Strings(rep.gaps)

	for _, res := range []*Result{rep.source, rep.hash} {
		reported := map[string]bool{}
		for _, key := range violationKeys(res) {
			reported[key] = true
		}
		for _, key := range rep.violating {
			if !reported[key] && !explained[key] {
				t.Errorf("%s: %s misses the brute-force violation %s", oc.name, res.Engine, key)
			}
		}
		if res.Truncated {
			t.Errorf("%s: %s sweep truncated", oc.name, res.Engine)
		}
	}
	if rep.hash.Runs != rep.source.Runs {
		t.Errorf("%s: source+hash ran %d schedules, pure source %d; the join key is altering the search", oc.name, rep.hash.Runs, rep.source.Runs)
	}
	checkGapList(t, oc.name, rep.gaps)
	t.Logf("%s: %d configurations, %d brute-force leaves (%d violating), source-DPOR %d runs, %d missed outcomes",
		oc.name, len(jobs), rep.leaves, rep.violatingLeaves, rep.source.Runs, len(rep.gaps))
	return rep
}

// jobViolationKey is violationKey for a violation of prop under job.
func jobViolationKey(job Job, prop string) string {
	return violationKey(&Violation{Pattern: patternLabel(job.Pattern), Oracle: job.Oracle.Name, Property: prop})
}

// checkGapList requires the instance's misses to be exactly its lines of
// oracleGapsFile.
func checkGapList(t *testing.T, instance string, got []string) {
	t.Helper()
	data, err := os.ReadFile(oracleGapsFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, instance+"\t") {
			want[line] = true
		}
	}
	for _, line := range got {
		if !want[line] {
			t.Errorf("unlisted miss:\n%s", line)
		}
		delete(want, line)
	}
	for line := range want {
		t.Errorf("listed miss no longer missed:\n%s", line)
	}
}
