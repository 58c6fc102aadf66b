// Package predictor implements the query-latency prediction Kairos relies
// on to build its L matrix (Sec. 5.1, "Remarks on assumptions and
// overhead"): inference latency is almost perfectly linear in batch size,
// so Kairos "starts with a linear model but ... quickly transition[s] into a
// lookup table after processing more queries", learned completely online
// without prior profiling.
package predictor

import (
	"fmt"
	"math"
)

// Predictor estimates serving latency per (instance type, batch size) pair.
type Predictor interface {
	// Predict returns the estimated latency in ms of a batch-b query on the
	// named instance type. Implementations may return 0 when they have no
	// information yet (optimistic cold start).
	Predict(instance string, batch int) float64
	// Observe feeds back one measured latency.
	Observe(instance string, batch int, latencyMS float64)
}

// Oracle adapts a ground-truth latency function into a Predictor that never
// needs observations; it models the paper's "accurately predicts query
// latency" assumption used by CLKWRK and by the baselines.
type Oracle struct {
	// Latency is the ground-truth surface.
	Latency func(instance string, batch int) float64
}

// Predict implements Predictor.
func (o Oracle) Predict(instance string, batch int) float64 { return o.Latency(instance, batch) }

// Observe implements Predictor; the oracle ignores feedback.
func (o Oracle) Observe(string, int, float64) {}

// perInstance carries the regression state and lookup table for one
// instance type.
type perInstance struct {
	// lookup[b] holds the running mean of observed latencies at exactly
	// batch size b (n == 0: never seen); with deterministic service times
	// one observation is exact. Dense, grown to the largest batch observed:
	// Predict sits in the matching round's inner loop.
	lookup []meanVar
	// least-squares accumulators over all observations.
	n                        float64
	sumX, sumY, sumXX, sumXY float64
}

type meanVar struct {
	n    float64
	mean float64
}

func (m meanVar) add(v float64) meanVar {
	m.n++
	m.mean += (v - m.mean) / m.n
	return m
}

// Online is the paper's online learner: exact lookup for batch sizes seen
// before, linear extrapolation otherwise, optimistic zero before any data.
// It is not safe for concurrent use; the central controller serializes
// access.
type Online struct {
	instances map[string]*perInstance
}

// NewOnline returns an empty online predictor.
func NewOnline() *Online {
	return &Online{instances: make(map[string]*perInstance)}
}

// Observe implements Predictor.
func (p *Online) Observe(instance string, batch int, latencyMS float64) {
	if batch < 1 {
		panic(fmt.Sprintf("predictor: batch %d < 1", batch))
	}
	if latencyMS < 0 || math.IsNaN(latencyMS) || math.IsInf(latencyMS, 0) {
		panic(fmt.Sprintf("predictor: invalid latency %v", latencyMS))
	}
	st, ok := p.instances[instance]
	if !ok {
		st = &perInstance{}
		p.instances[instance] = st
	}
	if grow := batch + 1 - len(st.lookup); grow > 0 {
		st.lookup = append(st.lookup, make([]meanVar, grow)...)
	}
	st.lookup[batch] = st.lookup[batch].add(latencyMS)
	x := float64(batch)
	st.n++
	st.sumX += x
	st.sumY += latencyMS
	st.sumXX += x * x
	st.sumXY += x * latencyMS
}

// Predict implements Predictor. Resolution order: exact lookup hit ->
// fitted line (needs two distinct batch sizes) -> single-point flat
// estimate -> optimistic zero.
func (p *Online) Predict(instance string, batch int) float64 {
	st, ok := p.instances[instance]
	if !ok {
		return 0
	}
	if st.known(batch) {
		return st.lookup[batch].mean
	}
	slope, intercept, ok := st.fit()
	if ok {
		v := intercept + slope*float64(batch)
		if v < 0 {
			v = 0
		}
		return v
	}
	if st.n > 0 {
		return st.sumY / st.n
	}
	return 0
}

// known reports whether the exact batch size has been observed.
func (st *perInstance) known(batch int) bool {
	return uint(batch) < uint(len(st.lookup)) && st.lookup[batch].n > 0
}

// fit returns the least-squares line when at least two distinct batch sizes
// have been observed.
func (st *perInstance) fit() (slope, intercept float64, ok bool) {
	if st.n < 2 {
		return 0, 0, false
	}
	denom := st.n*st.sumXX - st.sumX*st.sumX
	if denom <= 1e-12 {
		return 0, 0, false // all observations at the same batch size
	}
	slope = (st.n*st.sumXY - st.sumX*st.sumY) / denom
	intercept = (st.sumY - slope*st.sumX) / st.n
	return slope, intercept, true
}

// Known reports whether the exact (instance, batch) pair has been observed,
// i.e. whether Predict serves it from the lookup table.
func (p *Online) Known(instance string, batch int) bool {
	st, ok := p.instances[instance]
	return ok && st.known(batch)
}

// Observations returns the total number of latencies observed for the
// instance type.
func (p *Online) Observations(instance string) int {
	st, ok := p.instances[instance]
	if !ok {
		return 0
	}
	return int(st.n)
}

// Warmed returns an Online predictor pre-trained from a ground-truth oracle
// on a few probe batch sizes per instance; experiments use it when they want
// Kairos's own learned tables without replaying a cold start.
func Warmed(latency func(instance string, batch int) float64, instances []string, probes []int) *Online {
	p := NewOnline()
	for _, inst := range instances {
		for _, b := range probes {
			p.Observe(inst, b, latency(inst, b))
		}
	}
	return p
}
