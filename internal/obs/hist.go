// Package obs is the flight recorder: per-stage latency histograms,
// sampled per-query trace records, and the sampling policy that decides
// which queries carry a trace across the wire. It is a leaf package —
// stdlib only — so internal/server, internal/ingress, and
// internal/autopilot can all depend on it without cycles. Everything on
// the hot path is a handful of atomic adds on preallocated memory: no
// locks, no allocations, no extra clock reads (callers pass durations
// computed from timestamps they already took). It is also the one place
// outside the offline simulator that computes a latency quantile: the
// Histogram and the rolling Window share one bucket layout and one walk.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"sync/atomic"
	"time"
)

// Buckets are log-linear (HDR-style): a value's bucket is its binary
// exponent plus the subBits bits below its leading one. Values under
// 2·subCount ns get a bucket each; above that every power of two splits
// into subCount equal buckets, so no bucket is wider than 1/subCount of
// its lower bound. numBuckets buckets cover every uint64 nanosecond value
// — no table, no overflow bucket.
const (
	subBits    = 3
	subCount   = 1 << subBits
	numBuckets = (64 - subBits + 1) << subBits
)

// QuantileRelErr bounds every quantile this package reports: the estimate
// lies within a factor 1+QuantileRelErr (6.25 %) of the exact
// nearest-rank value. The walk finds the bucket holding that value and
// reports the bucket's midpoint; a bucket [m·2^s, (m+1)·2^s) with
// m ≥ subCount puts the midpoint within a factor 1+1/(2m) of anything in
// it, and buckets below 2·subCount ns are exact.
const QuantileRelErr = 1.0 / (2 * subCount)

// bucketOf returns the bucket holding v nanoseconds: a few ALU ops, no
// branch.
func bucketOf(v uint64) int {
	shift := bits.Len64(v|subCount) - subBits - 1
	return shift<<subBits + int(v>>shift)
}

// bucketRange returns the smallest value bucket i holds and its width: it
// holds [low, low+width).
func bucketRange(i int) (low, width uint64) {
	shift := max(i>>subBits-1, 0)
	return uint64(i-shift<<subBits) << shift, 1 << shift
}

// quantile is the one quantile walk, over any per-bucket count array
// holding n observations: the midpoint of the bucket that holds the
// nearest-rank p-quantile (0 < p ≤ 1). Returns 0 when n is 0.
func quantile(counts *[numBuckets]uint64, n uint64, p float64) time.Duration {
	if n == 0 {
		return 0
	}
	target := min(max(uint64(math.Ceil(p*float64(n))), 1), n)
	var cum uint64
	for i, c := range counts {
		if cum += c; cum >= target {
			low, width := bucketRange(i)
			return time.Duration(low + width/2)
		}
	}
	return 0
}

// Records are striped across a few independent counter banks to keep
// concurrent recorders off each other's cache lines; the stripe is
// picked from the low bits of the value itself (wall-clock nanosecond
// deltas are high-entropy there). Snapshots sum the stripes.
const histStripes = 4

type histStripe struct {
	counts [numBuckets]atomic.Uint64
	sum    atomic.Int64
	_      [56]byte // keep the next stripe's hot head off this cache line
}

// Histogram is a log-linear latency histogram safe for concurrent use.
// The zero value is ready; it takes ~16 KiB (four stripes of 496 counters).
type Histogram struct {
	stripes [histStripes]histStripe
}

// Record adds one observation. Negative durations clamp to zero. Cost:
// two uncontended atomic adds — no locks, no allocations.
func (h *Histogram) Record(d time.Duration) {
	v := uint64(max(d, 0))
	s := &h.stripes[(v>>2)&(histStripes-1)]
	s.counts[bucketOf(v)].Add(1)
	s.sum.Add(int64(v))
}

// HistSnapshot is a point-in-time copy of a histogram's counters.
type HistSnapshot struct {
	Counts [numBuckets]uint64
	Count  uint64
	SumNS  int64
}

// Snapshot copies the counters. Concurrent recording keeps going; the
// snapshot is consistent enough for monitoring (each counter is read
// once, atomically).
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.stripes {
		st := &h.stripes[i]
		for b := range st.counts {
			s.Counts[b] += st.counts[b].Load()
		}
		s.SumNS += st.sum.Load()
	}
	for _, c := range s.Counts {
		s.Count += c
	}
	return s
}

// Quantile estimates the p-quantile (0 < p ≤ 1) from the snapshot, within
// QuantileRelErr. Returns 0 for an empty snapshot.
func (s *HistSnapshot) Quantile(p float64) time.Duration { return quantile(&s.Counts, s.Count, p) }

// Quantile is a convenience over a fresh snapshot.
func (h *Histogram) Quantile(p float64) time.Duration {
	s := h.Snapshot()
	return s.Quantile(p)
}

// WriteProm writes the snapshot as a Prometheus text-format histogram
// family member: cumulative `le` buckets in seconds (each bucket's largest
// value), then _sum and _count. Only buckets that contain observations
// are emitted (plus +Inf, which is mandatory) — sparse `le` sets are
// valid exposition and keep /metrics compact. labels is a pre-rendered
// `k="v",k2="v2"` string, possibly empty; the caller owns HELP/TYPE
// headers.
func (s *HistSnapshot) WriteProm(w io.Writer, name, labels string) {
	prefix := labels
	if prefix != "" {
		prefix += ","
	}
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		cum += c
		low, width := bucketRange(i)
		le := strconv.FormatFloat(float64(low+(width-1))/1e9, 'g', -1, 64)
		fmt.Fprintf(w, "%s_bucket{%s"+`le=%q} %d`+"\n", name, prefix, le, cum)
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, prefix, s.Count)
	if labels != "" {
		fmt.Fprintf(w, "%s_sum{%s} %s\n", name, labels, strconv.FormatFloat(float64(s.SumNS)/1e9, 'g', -1, 64))
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, s.Count)
	} else {
		fmt.Fprintf(w, "%s_sum %s\n", name, strconv.FormatFloat(float64(s.SumNS)/1e9, 'g', -1, 64))
		fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
	}
}

// Window is a count-based rolling window over the histogram's buckets:
// the most recent capacity observations. A ring remembers each held
// observation's bucket so Observe evicts the oldest in O(1); Quantile is
// the histogram's own walk over the per-bucket counts — no copy, no sort,
// the same QuantileRelErr. Not safe for concurrent use; callers guard it.
type Window struct {
	ring   []uint16 // bucket of each held observation; ring[next] is the oldest once full
	next   int
	n      int
	counts [numBuckets]uint64
}

// NewWindow returns an empty window holding the most recent capacity
// observations. It panics on a non-positive capacity.
func NewWindow(capacity int) *Window {
	if capacity <= 0 {
		panic(fmt.Sprintf("obs: window capacity %d must be positive", capacity))
	}
	return &Window{ring: make([]uint16, capacity)}
}

// Observe records one observation, evicting the oldest once full.
// Negative durations clamp to zero.
func (w *Window) Observe(d time.Duration) {
	b := bucketOf(uint64(max(d, 0)))
	if w.n == len(w.ring) {
		w.counts[w.ring[w.next]]--
	} else {
		w.n++
	}
	w.ring[w.next] = uint16(b)
	w.counts[b]++
	if w.next++; w.next == len(w.ring) {
		w.next = 0
	}
}

// Len returns the number of observations held (≤ capacity).
func (w *Window) Len() int { return w.n }

// Quantile estimates the held observations' p-quantile (0 < p ≤ 1),
// within QuantileRelErr. Returns 0 when empty.
func (w *Window) Quantile(p float64) time.Duration { return quantile(&w.counts, uint64(w.n), p) }

// Reset discards every held observation.
func (w *Window) Reset() {
	w.counts = [numBuckets]uint64{}
	w.next, w.n = 0, 0
}
