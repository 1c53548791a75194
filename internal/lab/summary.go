package lab

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// Summary is the distribution of one metric over a scenario's seeded runs.
type Summary struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P99  float64 `json:"p99"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// ScenarioSummary aggregates one scenario's runs.
type ScenarioSummary struct {
	Family string            `json:"family"`
	Name   string            `json:"name"`
	Params map[string]string `json:"params"`
	Runs   int               `json:"runs"`
	Failed int               `json:"failed"`
	// Errors holds the distinct failure messages, capped at 3.
	Errors []string `json:"errors,omitempty"`
	// Metrics maps each metric name to its distribution over the runs that
	// reported it — including failed runs that returned diagnostics
	// alongside their error (see RunFunc).
	Metrics map[string]Summary `json:"metrics,omitempty"`
}

// Metric returns the named metric summary (zero value when absent).
func (s ScenarioSummary) Metric(name string) Summary { return s.Metrics[name] }

// Report is the output of one engine invocation. Scenarios is deterministic
// in the scenario list alone; Workers and ElapsedMS describe the particular
// execution and are excluded from Fingerprint.
type Report struct {
	Workers   int               `json:"workers"`
	ElapsedMS int64             `json:"elapsed_ms"`
	Runs      int               `json:"runs"`
	Failed    int               `json:"failed"`
	Scenarios []ScenarioSummary `json:"scenarios"`
}

// Fingerprint hashes the deterministic portion of the report. Two engine
// invocations over the same scenario list produce equal fingerprints
// regardless of worker count.
func (r *Report) Fingerprint() string {
	data, err := json.Marshal(r.Scenarios)
	if err != nil {
		panic(fmt.Sprintf("lab: marshal summaries: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// WriteJSON writes the report as indented JSON (`fdlab matrix -json`).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Family returns the summaries belonging to one family, in scenario order.
func (r *Report) Family(name string) []ScenarioSummary {
	var out []ScenarioSummary
	for _, s := range r.Scenarios {
		if s.Family == name {
			out = append(out, s)
		}
	}
	return out
}

// summarize folds one scenario's run outcomes into a summary.
func summarize(s Scenario, outs []runOutcome) ScenarioSummary {
	sum := ScenarioSummary{
		Family: s.Family,
		Name:   s.Name,
		Params: s.Params,
		Runs:   len(outs),
	}
	samples := make(map[string][]float64)
	seenErr := make(map[string]bool)
	for _, o := range outs {
		if o.err != nil {
			sum.Failed++
			msg := o.err.Error()
			if !seenErr[msg] && len(sum.Errors) < 3 {
				seenErr[msg] = true
				sum.Errors = append(sum.Errors, msg)
			}
			// A failed run that still reported metrics (e.g. "the adversary
			// ran but did not falsify") keeps its diagnostics.
		}
		for name, v := range o.metrics {
			samples[name] = append(samples[name], v)
		}
	}
	if len(samples) > 0 {
		sum.Metrics = make(map[string]Summary, len(samples))
		for name, vs := range samples {
			sum.Metrics[name] = newSummary(vs)
		}
	}
	return sum
}

// newSummary computes the distribution of a sample set. The zero-sample
// summary is all zeros: summarize never produces one today (metrics maps
// only hold reported samples), but the guard keeps a future caller from
// panicking on sorted[0] or dividing by zero into NaN means.
func newSummary(vs []float64) Summary {
	if len(vs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	total := 0.0
	for _, v := range sorted {
		total += v
	}
	return Summary{
		N:    len(sorted),
		Mean: total / float64(len(sorted)),
		P50:  percentile(sorted, 50),
		P99:  percentile(sorted, 99),
		Min:  sorted[0],
		Max:  sorted[len(sorted)-1],
	}
}

// percentile returns the nearest-rank p-th percentile of a sorted sample:
// sorted[⌈p/100·n⌉−1], with the rank clamped into [1, n] so that tiny
// samples (P99 of one or two runs) and out-of-range p values index the
// extremes instead of past the slice. The empty sample returns 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
