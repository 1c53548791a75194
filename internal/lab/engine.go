package lab

import (
	"hash/fnv"
	"runtime"
	"sync"
	"time"
)

// Options configures one engine invocation.
type Options struct {
	// Workers is the worker pool size; <= 0 means GOMAXPROCS.
	Workers int
}

// DeriveSeed returns the seed for run index idx of the named scenario. Seeds
// depend only on (name, idx) — never on worker identity or execution order —
// which is what makes aggregate results independent of parallelism. The
// derivation is FNV-1a over the name followed by a SplitMix64 finalization
// of the index, giving well-spread, stable streams per scenario.
func DeriveSeed(name string, idx int) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(splitmix64(h.Sum64() + uint64(idx)*0x9E3779B97F4A7C15))
}

// splitmix64 is the finalizer of Steele et al.'s SplitMix64 generator.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// runOutcome is one (scenario, seed) result, parked in its pre-assigned slot.
type runOutcome struct {
	metrics Metrics
	err     error
}

// Run executes every (scenario, seed) pair on a worker pool and aggregates
// the outcomes into a Report. Each result lands in a slot keyed by
// (scenario, seed), so the deterministic portion of the report (the
// scenario summaries, in scenario order) is identical for any worker count.
func Run(scenarios []Scenario, opts Options) *Report {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	type job struct{ scenario, seed int }
	var pending []job
	slots := make([][]runOutcome, len(scenarios))
	for i, s := range scenarios {
		seeds := s.Seeds
		if seeds < 1 {
			seeds = 1
		}
		slots[i] = make([]runOutcome, seeds)
		for j := 0; j < seeds; j++ {
			pending = append(pending, job{i, j})
		}
	}

	start := time.Now()
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobs {
				s := scenarios[jb.scenario]
				m, err := s.Run(DeriveSeed(s.Name, jb.seed))
				slots[jb.scenario][jb.seed] = runOutcome{metrics: m, err: err}
			}
		}()
	}
	for _, jb := range pending {
		jobs <- jb
	}
	close(jobs)
	wg.Wait()

	rep := &Report{Workers: workers}
	for i, s := range scenarios {
		sum := summarize(s, slots[i])
		rep.Runs += sum.Runs
		rep.Failed += sum.Failed
		rep.Scenarios = append(rep.Scenarios, sum)
	}
	rep.ElapsedMS = time.Since(start).Milliseconds()
	return rep
}
