package sim

import (
	"fmt"
	"math"
	"sort"
)

// The simulator's latency accounting is exact: every paper figure compares
// a 99th-percentile latency with the QoS target, so measured latencies are
// sorted and read by nearest rank rather than bucketed. (The live system's
// quantiles come from internal/obs.)

// Summary is a compact digest of the measured queries' latencies (model
// milliseconds).
type Summary struct {
	Count          int
	Mean, P50, P95 float64
	P99, Max       float64
}

// String renders the summary for logs.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2fms p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms",
		s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max)
}

// percentile is the nearest-rank lookup: the p-th percentile (0 < p ≤ 100)
// of a non-empty ascending slice is the smallest value v such that at
// least p% of samples are ≤ v, i.e. sorted[ceil(p/100·n)-1].
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[max(rank, 1)-1]
}

// digest summarizes a non-empty set of latencies given in arrival order
// and returns the fraction strictly above qos. It sorts lats in place.
func digest(lats []float64, qos float64) (s Summary, violationRate float64) {
	sum := 0.0
	for _, v := range lats {
		sum += v
	}
	sort.Float64s(lats)
	n := len(lats)
	s = Summary{
		Count: n,
		Mean:  sum / float64(n),
		P50:   percentile(lats, 50),
		P95:   percentile(lats, 95),
		P99:   percentile(lats, 99),
		Max:   lats[n-1],
	}
	above := n - sort.SearchFloat64s(lats, math.Nextafter(qos, math.Inf(1)))
	return s, float64(above) / float64(n)
}
