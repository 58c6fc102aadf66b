// Package metrics provides the latency/throughput accounting used by the
// serving simulator and the network controller: percentile computation with
// the nearest-rank method (the paper's QoS is a 99th-percentile tail-latency
// target) and violation-rate bookkeeping.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// SortedPercentile is the one nearest-rank lookup: the p-th percentile
// (0 < p <= 100) of an ascending-sorted slice is the smallest value v such
// that at least p% of samples are <= v, i.e. sorted[ceil(p/100*n)-1]. It
// returns NaN for an empty slice and panics on p outside (0,100].
func SortedPercentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 || p > 100 {
		panic(fmt.Sprintf("metrics: percentile %v outside (0,100]", p))
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// Percentile returns the nearest-rank p-th percentile of unsorted samples
// (see SortedPercentile). It sorts a copy; the input is not modified.
func Percentile(samples []float64, p float64) float64 {
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	return SortedPercentile(sorted, p)
}

// LatencyRecorder accumulates per-query latencies and answers tail-latency
// questions. It is not safe for concurrent use; the simulator is
// single-threaded per run and the network controller guards it with a lock.
type LatencyRecorder struct {
	samples []float64
	sorted  bool
}

// NewLatencyRecorder returns an empty recorder with the given capacity hint.
func NewLatencyRecorder(capacityHint int) *LatencyRecorder {
	return &LatencyRecorder{samples: make([]float64, 0, capacityHint)}
}

// Record adds one end-to-end query latency (milliseconds).
func (r *LatencyRecorder) Record(latencyMS float64) {
	r.samples = append(r.samples, latencyMS)
	r.sorted = false
}

// Count returns the number of recorded samples.
func (r *LatencyRecorder) Count() int { return len(r.samples) }

// ensureSorted keeps an amortized sorted view for repeated percentile reads.
func (r *LatencyRecorder) ensureSorted() {
	if !r.sorted {
		sort.Float64s(r.samples)
		r.sorted = true
	}
}

// Percentile returns the p-th percentile of the recorded latencies, or NaN
// if no samples were recorded.
func (r *LatencyRecorder) Percentile(p float64) float64 {
	r.ensureSorted()
	return SortedPercentile(r.samples, p)
}

// Mean returns the average latency, or NaN if empty.
func (r *LatencyRecorder) Mean() float64 {
	if len(r.samples) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range r.samples {
		sum += v
	}
	return sum / float64(len(r.samples))
}

// Max returns the largest latency, or NaN if empty.
func (r *LatencyRecorder) Max() float64 {
	if len(r.samples) == 0 {
		return math.NaN()
	}
	r.ensureSorted()
	return r.samples[len(r.samples)-1]
}

// ViolationRate returns the fraction of samples strictly above the QoS
// target.
func (r *LatencyRecorder) ViolationRate(qos float64) float64 {
	if len(r.samples) == 0 {
		return 0
	}
	r.ensureSorted()
	// First index with sample > qos.
	idx := sort.SearchFloat64s(r.samples, math.Nextafter(qos, math.Inf(1)))
	return float64(len(r.samples)-idx) / float64(len(r.samples))
}

// MeetsQoS reports whether the paper's service condition holds: the p-th
// percentile latency is within the QoS target.
func (r *LatencyRecorder) MeetsQoS(qos, p float64) bool {
	if len(r.samples) == 0 {
		return true
	}
	return r.Percentile(p) <= qos
}

// Reset discards all samples, retaining capacity.
func (r *LatencyRecorder) Reset() {
	r.samples = r.samples[:0]
	r.sorted = false
}

// Window is a fixed-capacity rolling window over latency samples: the
// live-path counterpart of LatencyRecorder, keeping only the most recent
// capacity observations so tail-latency answers track the current traffic
// instead of the whole run (the autopilot's SLO trigger reads it). Like
// LatencyRecorder it is not safe for concurrent use; callers guard it.
type Window struct {
	buf   []float64
	next  int
	full  bool
	total int64
}

// NewWindow returns an empty rolling window holding the most recent
// capacity samples. It panics on a non-positive capacity.
func NewWindow(capacity int) *Window {
	if capacity <= 0 {
		panic(fmt.Sprintf("metrics: window capacity %d must be positive", capacity))
	}
	return &Window{buf: make([]float64, 0, capacity)}
}

// Observe records one sample, evicting the oldest once full.
func (w *Window) Observe(v float64) {
	w.total++
	if len(w.buf) < cap(w.buf) {
		w.buf = append(w.buf, v)
		return
	}
	w.full = true
	w.buf[w.next] = v
	w.next = (w.next + 1) % cap(w.buf)
}

// Len returns the number of samples currently held (<= capacity).
func (w *Window) Len() int { return len(w.buf) }

// Full reports whether the window has wrapped at least once.
func (w *Window) Full() bool { return w.full }

// Total returns the number of samples ever observed, including evicted
// ones.
func (w *Window) Total() int64 { return w.total }

// Snapshot returns a copy of the held samples in unspecified order.
func (w *Window) Snapshot() []float64 {
	out := make([]float64, len(w.buf))
	copy(out, w.buf)
	return out
}

// Percentile returns the p-th percentile of the held samples, or NaN when
// empty.
func (w *Window) Percentile(p float64) float64 { return Percentile(w.buf, p) }

// Mean returns the average of the held samples, or NaN when empty.
func (w *Window) Mean() float64 {
	if len(w.buf) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range w.buf {
		sum += v
	}
	return sum / float64(len(w.buf))
}

// Reset discards the held samples and the total count.
func (w *Window) Reset() {
	w.buf = w.buf[:0]
	w.next = 0
	w.full = false
	w.total = 0
}

// Summary is a compact distribution digest for reporting.
type Summary struct {
	Count          int
	Mean, P50, P95 float64
	P99, Max       float64
}

// Summarize returns the digest of the recorder's samples.
func (r *LatencyRecorder) Summarize() Summary {
	if len(r.samples) == 0 {
		return Summary{}
	}
	return Summary{
		Count: len(r.samples),
		Mean:  r.Mean(),
		P50:   r.Percentile(50),
		P95:   r.Percentile(95),
		P99:   r.Percentile(99),
		Max:   r.Max(),
	}
}

// String renders the summary for logs.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2fms p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms",
		s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max)
}
