package main

import (
	"fmt"
	"log"
	"strconv"
	"strings"
)

// parseCrashes parses a crash specification of the form
// "pid:step[,pid:step...]" with 0-based pids, e.g. "0:10,3:45".
// An empty string yields a nil map (no crashes).
func parseCrashes(s string) (map[int]int64, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[int]int64)
	for _, part := range strings.Split(s, ",") {
		pid, step, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("bad crash spec %q (want pid:step)", part)
		}
		p, err := strconv.Atoi(strings.TrimSpace(pid))
		if err != nil {
			return nil, fmt.Errorf("bad crash pid %q: %w", pid, err)
		}
		if p < 0 {
			return nil, fmt.Errorf("negative crash pid %d", p)
		}
		t, err := strconv.ParseInt(strings.TrimSpace(step), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad crash step %q: %w", step, err)
		}
		if t < 0 {
			return nil, fmt.Errorf("negative crash step %d", t)
		}
		if _, dup := out[p]; dup {
			return nil, fmt.Errorf("duplicate crash pid %d", p)
		}
		out[p] = t
	}
	return out, nil
}

// parseProposals parses a comma-separated value list, e.g. "10,20,30"; an
// empty string yields nil (caller applies defaults).
func parseProposals(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int64, 0, len(parts))
	for _, part := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad proposal %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// defaultProposals returns n distinct proposals 100..100+n−1.
func defaultProposals(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(100 + i)
	}
	return out
}

// parseTimes parses a comma-separated list of non-negative step times for
// the named flag, e.g. "0,3"; an empty string yields nil (caller applies
// defaults).
func parseTimes(flagName, s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int64, 0, len(parts))
	for _, part := range parts {
		t, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad %s entry %q: %w", flagName, part, err)
		}
		if t < 0 {
			return nil, fmt.Errorf("negative %s entry %d", flagName, t)
		}
		out = append(out, t)
	}
	return out, nil
}

// validatePool rejects, fatally, worker-pool and seed counts that would
// silently produce an empty or hung run: -workers below 0 (0 means
// GOMAXPROCS) and -seeds below 1 are configuration errors, not requests.
func validatePool(workers, seeds int) {
	if workers < 0 {
		log.Fatalf("-workers must be >= 0 (0 = GOMAXPROCS), got %d", workers)
	}
	if seeds <= 0 {
		log.Fatalf("-seeds must be >= 1, got %d", seeds)
	}
}
