package explore

import (
	"reflect"
	"testing"

	"weakestfd/internal/sim"
)

// garbledSweep is a sweep with several distinct violating configurations:
// fig1-garbled-decide at n=2 fails validity under every (pattern × oracle)
// cell, so violation ordering and shard merging are exercised on a
// multi-violation result. MaxViolations is lifted far above the config
// count so the budget never couples configurations — the regime in which
// sharded exploration is exactly equal to single-process.
func garbledSweep() Config {
	return Config{
		System:        GarbledFig1System(2),
		CrashTimes:    []sim.Time{0},
		MaxDepth:      12,
		Budget:        1024,
		MaxViolations: 1 << 20,
		ShrinkBudget:  50,
	}
}

func TestEnumerateJobsDeterministic(t *testing.T) {
	cfg := Config{System: Fig1System(3)}
	a, b := EnumerateJobs(cfg), EnumerateJobs(cfg)
	if len(a) == 0 {
		t.Fatal("EnumerateJobs returned no jobs for fig1 n=3")
	}
	for i := range a {
		if a[i].Label() != b[i].Label() {
			t.Fatalf("job %d differs between enumerations: %s vs %s", i, a[i].Label(), b[i].Label())
		}
	}
	// The job list must match what Explore reports as its config count.
	small := Config{System: Fig1System(2), CrashTimes: []sim.Time{0}, MaxDepth: 12, Budget: 1024}
	res := Explore(small)
	if n := len(EnumerateJobs(small)); n != res.Configs {
		t.Errorf("EnumerateJobs produced %d jobs, Explore reported %d configs", n, res.Configs)
	}
}

// TestViolationOrderWorkerInvariant is the satellite regression test for the
// completion-order Violations bug: a multi-worker sweep must report the
// byte-identical violation sequence a serial sweep does.
func TestViolationOrderWorkerInvariant(t *testing.T) {
	cfg := garbledSweep()
	cfg.Workers = 1
	serial := Explore(cfg)
	cfg.Workers = 4
	pooled := Explore(cfg)

	if len(serial.Violations) < 2 {
		t.Fatalf("sweep found %d violations, want >= 2 for an ordering test", len(serial.Violations))
	}
	sk, pk := make([]string, 0), make([]string, 0)
	for _, v := range serial.Violations {
		sk = append(sk, violationKey(v))
	}
	for _, v := range pooled.Violations {
		pk = append(pk, violationKey(v))
	}
	if !reflect.DeepEqual(sk, pk) {
		t.Errorf("violation order differs across worker counts:\n workers=1: %v\n workers=4: %v", sk, pk)
	}
	if !sort_isSorted(sk) {
		t.Errorf("violations not sorted by (pattern, oracle, property): %v", sk)
	}
	if serial.Runs != pooled.Runs || serial.Joined != pooled.Joined {
		t.Errorf("counters differ across worker counts: runs %d vs %d, joined %d vs %d",
			serial.Runs, pooled.Runs, serial.Joined, pooled.Joined)
	}
}

func sort_isSorted(ks []string) bool {
	for i := 1; i < len(ks); i++ {
		if ks[i] < ks[i-1] {
			return false
		}
	}
	return true
}

// TestExploreJobsShardedMerge is the shard-grain equality property the fleet
// relies on: exploring every job in its own ExploreJobs call and merging the
// per-shard Results must reproduce the single-process Explore Result exactly
// (counters, flags, violation keys and order).
func TestExploreJobsShardedMerge(t *testing.T) {
	cfg := garbledSweep()
	cfg.Workers = 1
	whole := Explore(cfg)

	jobs := EnumerateJobs(cfg)
	if len(jobs) != whole.Configs {
		t.Fatalf("enumerated %d jobs, Explore reported %d configs", len(jobs), whole.Configs)
	}
	shards := make([]*Result, 0, len(jobs))
	for _, jb := range jobs {
		shards = append(shards, ExploreJobs(cfg, []Job{jb}))
	}
	merged, err := MergeResults(shards)
	if err != nil {
		t.Fatalf("MergeResults: %v", err)
	}

	if merged.Configs != whole.Configs || merged.Runs != whole.Runs ||
		merged.Pruned != whole.Pruned || merged.Joined != whole.Joined ||
		merged.SettledRuns != whole.SettledRuns || merged.MaxSteps != whole.MaxSteps {
		t.Errorf("merged counters differ from single-process Explore:\n merged: configs=%d runs=%d pruned=%d joined=%d settled=%d maxsteps=%d\n whole:  configs=%d runs=%d pruned=%d joined=%d settled=%d maxsteps=%d",
			merged.Configs, merged.Runs, merged.Pruned, merged.Joined, merged.SettledRuns, merged.MaxSteps,
			whole.Configs, whole.Runs, whole.Pruned, whole.Joined, whole.SettledRuns, whole.MaxSteps)
	}
	if merged.Truncated != whole.Truncated || merged.StateCapped != whole.StateCapped ||
		merged.DepthLimited != whole.DepthLimited {
		t.Errorf("merged flags differ: merged {%v %v %v} vs whole {%v %v %v}",
			merged.Truncated, merged.StateCapped, merged.DepthLimited,
			whole.Truncated, whole.StateCapped, whole.DepthLimited)
	}
	mk, wk := violationKeys(merged), violationKeys(whole)
	if !reflect.DeepEqual(mk, wk) {
		t.Errorf("merged violation set differs:\n merged: %v\n whole:  %v", mk, wk)
	}
	for i := range merged.Violations {
		if violationKey(merged.Violations[i]) != violationKey(whole.Violations[i]) {
			t.Errorf("violation %d out of order after merge: %s vs %s",
				i, violationKey(merged.Violations[i]), violationKey(whole.Violations[i]))
		}
	}
}

func TestMergeResultsRejectsMixedSweeps(t *testing.T) {
	if _, err := MergeResults(nil); err == nil {
		t.Error("MergeResults(nil) succeeded, want error")
	}
	a := &Result{System: "fig1", Engine: "source+hash"}
	b := &Result{System: "fig2", Engine: "source+hash"}
	if _, err := MergeResults([]*Result{a, b}); err == nil {
		t.Error("MergeResults across systems succeeded, want error")
	}
	c := &Result{System: "fig1", Engine: "source"}
	if _, err := MergeResults([]*Result{a, c}); err == nil {
		t.Error("MergeResults across join settings succeeded, want error")
	}
}
