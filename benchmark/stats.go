package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile (0 ≤ p ≤ 1) of an ascending slice by
// linear interpolation between order statistics. An empty slice gives 0.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// tailLadder is the set of percentiles a report may quote, ascending,
// each with the fewest samples that leave ten beyond it.
var tailLadder = []struct {
	p    float64
	minN int
}{{0.50, 20}, {0.90, 100}, {0.99, 1000}, {0.999, 10000}}

// supportedTail applies the reporting rule: quote the highest percentile
// that still has at least ten samples beyond it. With fewer than twenty
// samples even the median is unsupported and 0 is returned.
func supportedTail(n int) float64 {
	best := 0.0
	for _, t := range tailLadder {
		if n >= t.minN {
			best = t.p
		}
	}
	return best
}

// tailAt returns the p-quantile, or the highest supported percentile when
// p itself has fewer than ten samples beyond it, together with the
// percentile actually used.
func tailAt(sorted []float64, p float64) (value, used float64) {
	used = math.Min(p, supportedTail(len(sorted)))
	if used == 0 {
		used = 0.5 // too few samples to support anything; the record carries n
	}
	return quantile(sorted, used), used
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// rung is one fixed-rate step of the open-loop ladder as the knee finder
// sees it.
type rung struct {
	RateQPS float64
	TailMS  float64 // latency at the limit's percentile, from the due time
	// Grew marks a rung whose in-flight count kept growing: its rate is
	// beyond capacity whatever its percentile says.
	Grew bool
	// Disturbed marks a rung the generator itself ran late on (>10 ms);
	// its latencies say nothing about the system, so the knee skips it.
	Disturbed bool
}

// kneeQPS is the highest rate that meets limitMS: the crossing of the
// tail-latency curve with the limit, linearly interpolated between the
// last rung that passes and the first that fails. Rungs must ascend by
// rate. bracketed is false when the ladder never crosses the limit: every
// usable rung passing returns the top rate (a lower bound); every usable
// rung failing scales the lowest rate by limit/tail (a pessimistic
// estimate that stays finite, so the cost metric derived from it does).
func kneeQPS(ladder []rung, limitMS float64) (qps float64, bracketed bool) {
	var use []rung
	for _, r := range ladder {
		if !r.Disturbed {
			use = append(use, r)
		}
	}
	if len(use) == 0 {
		use = ladder // nothing trustworthy: fall back to everything
	}
	if len(use) == 0 {
		return 0, false
	}
	passes := func(r rung) bool { return !r.Grew && r.TailMS <= limitMS }
	last := -1
	for i, r := range use {
		if !passes(r) {
			break
		}
		last = i
	}
	switch {
	case last == len(use)-1:
		return use[last].RateQPS, false
	case last < 0:
		return use[0].RateQPS * math.Min(1, limitMS/use[0].TailMS), false
	}
	lo, hi := use[last], use[last+1]
	if hi.TailMS <= lo.TailMS {
		// The failing rung failed on backlog growth alone.
		return lo.RateQPS, true
	}
	frac := (limitMS - lo.TailMS) / (hi.TailMS - lo.TailMS)
	return lo.RateQPS + math.Min(1, frac)*(hi.RateQPS-lo.RateQPS), true
}
