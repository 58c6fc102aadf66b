// Package obs is the flight recorder: per-stage latency histograms,
// sampled per-query trace records, and the sampling policy that decides
// which queries carry a trace across the wire. It is a leaf package —
// stdlib only — so internal/server, internal/ingress, and
// internal/autopilot can all depend on it without cycles. Everything on
// the hot path is a handful of atomic adds on preallocated memory: no
// locks, no allocations, no extra clock reads (callers pass durations
// computed from timestamps they already took).
package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"sync/atomic"
	"time"
)

// The histogram is fixed-bucket log-scale: bucket i covers
// (boundsNS[i-1], boundsNS[i]] nanoseconds, with bucket 0 anchored at
// histBaseNS and successive bounds growing by √2. 64 bounds span 1µs to
// ~54min, which covers both time-compressed runs (TimeScale 1e-6 puts
// serve times in the tens of nanoseconds — they land in bucket 0) and
// real-time fleets. A final implicit bucket catches overflow.
const (
	numBuckets = 64
	histBaseNS = 1000 // first bucket upper bound: 1µs
)

var boundsNS [numBuckets]uint64

func init() {
	for i := range boundsNS {
		boundsNS[i] = uint64(math.Round(histBaseNS * math.Pow(2, float64(i)/2)))
	}
}

// BucketBounds returns the bucket upper bounds (exclusive of the
// overflow bucket) as durations. The slice is freshly allocated.
func BucketBounds() []time.Duration {
	out := make([]time.Duration, numBuckets)
	for i, b := range boundsNS {
		out[i] = time.Duration(b)
	}
	return out
}

// bucketOf returns the index of the bucket covering v nanoseconds;
// numBuckets is the overflow bucket.
func bucketOf(v uint64) int {
	lo, hi := 0, numBuckets
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= boundsNS[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Records are striped across a few independent counter banks to keep
// concurrent recorders off each other's cache lines; the stripe is
// picked from the low bits of the value itself (wall-clock nanosecond
// deltas are high-entropy there). Snapshots sum the stripes.
const histStripes = 4

type histStripe struct {
	counts [numBuckets + 1]atomic.Uint64
	sum    atomic.Int64
	_      [56]byte // keep the next stripe's hot head off this cache line
}

// Histogram is a fixed-bucket log-scale latency histogram safe for
// concurrent use. The zero value is ready.
type Histogram struct {
	stripes [histStripes]histStripe
}

// Record adds one observation. Negative durations clamp to zero. Cost:
// two uncontended atomic adds — no locks, no allocations.
func (h *Histogram) Record(d time.Duration) {
	var v uint64
	if d > 0 {
		v = uint64(d)
	}
	s := &h.stripes[(v>>2)&(histStripes-1)]
	s.counts[bucketOf(v)].Add(1)
	s.sum.Add(int64(v))
}

// HistSnapshot is a point-in-time copy of a histogram's counters.
// Counts has one entry per bucket plus the trailing overflow bucket.
type HistSnapshot struct {
	Counts [numBuckets + 1]uint64
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

// Quantile estimates the p-quantile (0 < p ≤ 1) from the snapshot. The
// estimate is the geometric midpoint of the covering bucket, so the
// multiplicative error is at most the bucket growth factor √2 (≈2^(1/4)
// in expectation). Returns 0 for an empty snapshot.
func (s *HistSnapshot) Quantile(p float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	target := uint64(math.Ceil(p * float64(s.Count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum < target {
			continue
		}
		if i >= numBuckets { // overflow: best effort, report the last bound
			return time.Duration(boundsNS[numBuckets-1])
		}
		upper := float64(boundsNS[i])
		lower := upper / math.Sqrt2
		if i > 0 {
			lower = float64(boundsNS[i-1])
		}
		return time.Duration(math.Sqrt(lower * upper))
	}
	return time.Duration(boundsNS[numBuckets-1])
}

// Quantile is a convenience over a fresh snapshot.
func (h *Histogram) Quantile(p float64) time.Duration {
	s := h.Snapshot()
	return s.Quantile(p)
}

// WriteProm writes the snapshot as a Prometheus text-format histogram
// family member: cumulative `le` buckets in seconds, then _sum and
// _count. Only buckets that contain observations are emitted (plus
// +Inf, which is mandatory) — sparse `le` sets are valid exposition and
// keep /metrics compact. labels is a pre-rendered `k="v",k2="v2"`
// string, possibly empty; the caller owns HELP/TYPE headers.
func (s *HistSnapshot) WriteProm(w io.Writer, name, labels string) {
	prefix := labels
	if prefix != "" {
		prefix += ","
	}
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 || i >= numBuckets {
			continue
		}
		cum += c
		le := strconv.FormatFloat(float64(boundsNS[i])/1e9, 'g', -1, 64)
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
