package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketBoundaries(t *testing.T) {
	// Below 2·subCount ns every value is its own bucket; above, each power
	// of two splits into subCount buckets whose first value is m<<shift.
	for v := uint64(0); v < 2*subCount; v++ {
		if got := bucketOf(v); got != int(v) {
			t.Fatalf("bucketOf(%d) = %d, want exact bucket %d", v, got, v)
		}
	}
	for _, tc := range []struct {
		v    uint64
		want int
	}{
		{16, 16}, {17, 16}, {18, 17}, {31, 23}, {32, 24}, {1000, 63},
		{1 << 40, 37*subCount + subCount}, {1<<63 - 1, numBuckets - 9}, {math.MaxUint64, numBuckets - 1},
	} {
		if got := bucketOf(tc.v); got != tc.want {
			t.Fatalf("bucketOf(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
	// Negative durations clamp into bucket 0; the largest duration lands in
	// a real bucket (there is no overflow bucket).
	var h Histogram
	h.Record(-time.Second)
	h.Record(time.Duration(math.MaxInt64))
	s := h.Snapshot()
	if s.Counts[0] != 1 || s.Counts[bucketOf(math.MaxInt64)] != 1 || s.Count != 2 {
		t.Fatalf("counts: bucket 0 = %d, top = %d, count = %d", s.Counts[0], s.Counts[bucketOf(math.MaxInt64)], s.Count)
	}
}

// TestBucketIndexProperty: across the whole uint64 range the buckets tile
// the line — each starts where the previous ends, so bucketOf is monotone
// — and every value lies inside the bounds of the bucket it is given, no
// wider than QuantileRelErr allows.
func TestBucketIndexProperty(t *testing.T) {
	var next uint64 // the first value the next bucket must hold
	for i := 0; i < numBuckets; i++ {
		low, width := bucketRange(i)
		if low != next || width == 0 || width&(width-1) != 0 {
			t.Fatalf("bucket %d = [%d, +%d), want it to start at %d with a power-of-two width", i, low, width, next)
		}
		if low >= 2*subCount && float64(width) > float64(low)/subCount {
			t.Fatalf("bucket %d = [%d, +%d) wider than 1/%d of its lower bound", i, low, width, subCount)
		}
		last := low + (width - 1)
		if bucketOf(low) != i || bucketOf(last) != i {
			t.Fatalf("bucket %d = [%d, %d]: bucketOf gives %d and %d", i, low, last, bucketOf(low), bucketOf(last))
		}
		next = last + 1 // wraps to 0 after the last bucket
	}
	if next != 0 {
		t.Fatalf("buckets end at %d, not at the top of the uint64 range", next-1)
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 100000; k++ {
		a, b := rng.Uint64()>>rng.Intn(64), rng.Uint64()>>rng.Intn(64)
		if a > b {
			a, b = b, a
		}
		if bucketOf(a) > bucketOf(b) {
			t.Fatalf("bucketOf not monotone: %d -> %d, %d -> %d", a, bucketOf(a), b, bucketOf(b))
		}
		low, width := bucketRange(bucketOf(a))
		if a < low || a-low >= width {
			t.Fatalf("%d outside its bucket [%d, +%d)", a, low, width)
		}
	}
}

// within reports whether est is within a factor 1+QuantileRelErr of exact.
func within(est, exact time.Duration) bool {
	return float64(est) <= float64(exact)*(1+QuantileRelErr) && float64(est)*(1+QuantileRelErr) >= float64(exact)
}

func TestHistogramQuantileErrorBounds(t *testing.T) {
	// For any point mass v the quantile estimate is within the documented
	// factor of v, and exact below 2·subCount ns.
	for _, v := range []time.Duration{
		0, 3, 15, 16, 999, 1000, 1001, 5 * time.Microsecond, 733 * time.Microsecond,
		3 * time.Millisecond, 250 * time.Millisecond, 7 * time.Second, 90 * time.Hour,
	} {
		var h Histogram
		for i := 0; i < 100; i++ {
			h.Record(v)
		}
		for _, p := range []float64{0.001, 0.5, 0.99, 0.999, 1} {
			if est := h.Quantile(p); !within(est, v) || (v < 2*subCount && est != v) {
				t.Fatalf("Quantile(%g) of point mass %v = %v, outside the %.2f%% bound", p, v, est, 100*QuantileRelErr)
			}
		}
	}
	// Order statistics across a spread: p50 of {1ms x50, 100ms x50}
	// must sit near 1ms, p99 near 100ms.
	var h Histogram
	for i := 0; i < 50; i++ {
		h.Record(time.Millisecond)
		h.Record(100 * time.Millisecond)
	}
	if p50 := h.Quantile(0.50); !within(p50, time.Millisecond) {
		t.Fatalf("p50 = %v, want ~1ms", p50)
	}
	if p99 := h.Quantile(0.99); !within(p99, 100*time.Millisecond) {
		t.Fatalf("p99 = %v, want ~100ms", p99)
	}
	var empty Histogram
	if q := empty.Quantile(0.99); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
}

// nearestRank is the exact reference: the smallest sample with at least
// p of the samples at or below it.
func nearestRank(samples []time.Duration, p float64) time.Duration {
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	rank := min(max(int(math.Ceil(p*float64(len(sorted)))), 1), len(sorted))
	return sorted[rank-1]
}

// TestQuantileProperty: on seeded log-uniform samples from 1ns to ~1h,
// the histogram's and the window's quantiles stay within QuantileRelErr
// of the exact nearest-rank value — the window also after it has wrapped
// many times over and after a Reset.
func TestQuantileProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	logUniform := func() time.Duration { return time.Duration(math.Exp(rng.Float64() * math.Log(3.6e12))) }
	ps := []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1}
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(3000)
		var h Histogram
		samples := make([]time.Duration, n)
		for i := range samples {
			samples[i] = logUniform()
			h.Record(samples[i])
		}
		for _, p := range ps {
			if est, exact := h.Quantile(p), nearestRank(samples, p); !within(est, exact) {
				t.Fatalf("trial %d: histogram p%g over %d samples = %v, exact %v", trial, 100*p, n, est, exact)
			}
		}
		capacity := 1 + rng.Intn(500)
		w := NewWindow(capacity)
		for round := 0; round < 2; round++ {
			for i := range samples {
				w.Observe(samples[i])
			}
			held := samples[max(0, n-capacity):]
			if w.Len() != len(held) {
				t.Fatalf("trial %d: window holds %d, want %d", trial, w.Len(), len(held))
			}
			for _, p := range ps {
				if est, exact := w.Quantile(p), nearestRank(held, p); !within(est, exact) {
					t.Fatalf("trial %d round %d: window(%d) p%g = %v, exact %v", trial, round, capacity, 100*p, est, exact)
				}
			}
			w.Reset()
			if w.Len() != 0 || w.Quantile(0.99) != 0 {
				t.Fatalf("trial %d: Reset left %d observations (p99 %v)", trial, w.Len(), w.Quantile(0.99))
			}
		}
	}
}

// TestWindowRolls: the window holds the most recent capacity
// observations; values under 2·subCount ns are exact, so the rank rule
// shows through unblurred.
func TestWindowRolls(t *testing.T) {
	w := NewWindow(4)
	if w.Len() != 0 || w.Quantile(0.99) != 0 {
		t.Fatal("empty window must report 0")
	}
	for i := 1; i <= 4; i++ {
		w.Observe(time.Duration(i))
	}
	if w.Len() != 4 || w.Quantile(1) != 4 || w.Quantile(0.25) != 1 {
		t.Fatalf("filled window: len=%d p100=%v p25=%v", w.Len(), w.Quantile(1), w.Quantile(0.25))
	}
	// Two more observations evict the two oldest: window is {3,4,5,6}.
	w.Observe(5)
	w.Observe(6)
	if w.Len() != 4 || w.Quantile(0.5) != 4 || w.Quantile(1) != 6 || w.Quantile(0.01) != 3 {
		t.Fatalf("rolled: len=%d p50=%v p100=%v p1=%v, want 4/4/6/3", w.Len(), w.Quantile(0.5), w.Quantile(1), w.Quantile(0.01))
	}
	w.Reset()
	w.Observe(-time.Second) // clamps to 0
	if w.Len() != 1 || w.Quantile(1) != 0 {
		t.Fatalf("after reset: len=%d p100=%v", w.Len(), w.Quantile(1))
	}
}

func TestWindowRejectsBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWindow(0) must panic")
		}
	}()
	NewWindow(0)
}

func TestHistogramConcurrentRecording(t *testing.T) {
	// Hammer one histogram from many goroutines under -race; the total
	// count and sum must come out exact (atomics lose nothing).
	var h Histogram
	const goroutines, per = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(time.Duration(1000 + (g*per+i)*13))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*per)
	}
	var wantSum int64
	for g := 0; g < goroutines; g++ {
		for i := 0; i < per; i++ {
			wantSum += int64(1000 + (g*per+i)*13)
		}
	}
	if s.SumNS != wantSum {
		t.Fatalf("sum = %d, want %d", s.SumNS, wantSum)
	}
}

func TestSamplingDeterminism(t *testing.T) {
	pick := func(seed uint64) []int64 {
		var s Sampler
		s.Configure(16, seed)
		var ids []int64
		for id := int64(0); id < 4096; id++ {
			if s.Sample(uint64(id)) {
				ids = append(ids, id)
			}
		}
		return ids
	}
	a, b := pick(42), pick(42)
	if len(a) == 0 {
		t.Fatal("seed 42 sampled nothing out of 4096 at rate 1/16")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed produced different traced query sets")
	}
	c := pick(43)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical traced query sets")
	}
	// Rate sanity: 1/16 of 4096 = 256 expected; allow wide slack.
	if len(a) < 128 || len(a) > 512 {
		t.Fatalf("sampled %d of 4096 at rate 1/16, far from expected ~256", len(a))
	}
	// Edge rates.
	var s Sampler
	s.Configure(0, 0)
	if s.Sample(7) {
		t.Fatal("rate 0 must disable sampling")
	}
	s.Configure(1, 0)
	if !s.Sample(7) {
		t.Fatal("rate 1 must sample everything")
	}
}

func TestRingWraparoundAndDump(t *testing.T) {
	reg := NewRegistry(8, "m")
	mo := reg.Model("m")
	tid := reg.Intern("g4dn.xlarge")
	for i := 1; i <= 20; i++ {
		mo.Trace(&TraceRecord{ID: int64(i), Batch: i, QueueNS: int64(i * 10)}, tid)
	}
	got := mo.Traces(0)
	if len(got) != 8 {
		t.Fatalf("ring of 8 returned %d records", len(got))
	}
	for i, rec := range got {
		want := int64(20 - i) // newest first
		if rec.ID != want {
			t.Fatalf("record %d: id %d, want %d", i, rec.ID, want)
		}
		if rec.Instance != "g4dn.xlarge" {
			t.Fatalf("record %d: instance %q", i, rec.Instance)
		}
	}
	if got = mo.Traces(3); len(got) != 3 || got[0].ID != 20 {
		t.Fatalf("Traces(3) = %+v", got)
	}
	// Unknown type ID leaves Instance empty.
	mo.Trace(&TraceRecord{ID: 99}, -1)
	if got = mo.Traces(1); got[0].Instance != "" {
		t.Fatalf("typeID -1 should have no instance, got %q", got[0].Instance)
	}
}

func TestRingConcurrent(t *testing.T) {
	// Writers race readers under -race; every dumped record must be
	// internally consistent (ID == Batch invariant maintained by the
	// writers proves no torn records survive the seq check).
	reg := NewRegistry(64, "m")
	mo := reg.Model("m")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := int64(w*1_000_000 + i)
				mo.Trace(&TraceRecord{ID: id, Batch: int(id % 1000), QueueNS: id}, -1)
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		for _, rec := range mo.Traces(0) {
			if rec.Batch != int(rec.ID%1000) || rec.QueueNS != rec.ID {
				t.Errorf("torn record survived seq check: %+v", rec)
			}
		}
	}
	close(stop)
	wg.Wait()
}

var promLineRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (NaN|[-+]?[0-9.eE+-]+|\+Inf)$`)

func TestWritePromFormat(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Record(time.Duration(i) * 100 * time.Microsecond)
	}
	for _, labels := range []string{`model="NCF",stage="queue"`, ""} {
		var buf bytes.Buffer
		s := h.Snapshot()
		s.WriteProm(&buf, "kairos_stage_latency_seconds", labels)
		var lastCum uint64
		var sawInf bool
		var count uint64
		sc := bufio.NewScanner(&buf)
		for sc.Scan() {
			line := sc.Text()
			if !promLineRe.MatchString(line) {
				t.Fatalf("bad exposition line: %q", line)
			}
			switch {
			case strings.Contains(line, "_bucket{"):
				v, _ := strconv.ParseUint(line[strings.LastIndex(line, " ")+1:], 10, 64)
				if v < lastCum {
					t.Fatalf("non-monotone cumulative bucket: %q after %d", line, lastCum)
				}
				lastCum = v
				if strings.Contains(line, `le="+Inf"`) {
					sawInf = true
				}
			case strings.Contains(line, "_count"):
				count, _ = strconv.ParseUint(line[strings.LastIndex(line, " ")+1:], 10, 64)
			}
		}
		if !sawInf {
			t.Fatal("no +Inf bucket emitted")
		}
		if count != 1000 || lastCum != 1000 {
			t.Fatalf("count %d / +Inf cum %d, want 1000", count, lastCum)
		}
	}
}

func TestRegistryModelsAndIntern(t *testing.T) {
	reg := NewRegistry(0, "b", "a", "b")
	if got := fmt.Sprint(reg.Models()); got != "[a b]" {
		t.Fatalf("Models() = %v", got)
	}
	if reg.Model("nope") != nil {
		t.Fatal("unknown model should be nil")
	}
	id1, id2 := reg.Intern("t1"), reg.Intern("t2")
	if id1 == id2 || reg.Intern("t1") != id1 {
		t.Fatal("intern table not stable")
	}
	if reg.TypeName(id2) != "t2" || reg.TypeName(99) != "" {
		t.Fatal("TypeName resolution broken")
	}
	every, seed := reg.Sampling()
	if every != DefaultSampleEvery || seed != 0 {
		t.Fatalf("default sampling = (%d,%d)", every, seed)
	}
	reg.SetSampling(1, 9)
	if every, seed = reg.Sampling(); every != 1 || seed != 9 {
		t.Fatalf("SetSampling not applied: (%d,%d)", every, seed)
	}
	mo := reg.Model("a")
	h1 := mo.ServeHist("g4dn.xlarge")
	h2 := mo.ServeHist("r5n.large")
	if mo.ServeHist("g4dn.xlarge") != h1 || h1 == h2 {
		t.Fatal("ServeHist identity broken")
	}
	h1.Record(time.Millisecond)
	byType := mo.ServeByType()
	if len(byType) != 2 || byType[0].Type != "g4dn.xlarge" || byType[0].Snap.Count != 1 {
		t.Fatalf("ServeByType = %+v", byType)
	}
}

// BenchmarkHistogramRecord is one stage-histogram observation, the unit
// cost paid several times per completed query.
func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(1000 + i*37))
	}
}

// BenchmarkWindowObserve is one observation into the autopilot's rolling
// latency window: a bucket index, one eviction, two count updates.
func BenchmarkWindowObserve(b *testing.B) {
	w := NewWindow(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Observe(time.Duration(1000 + i*37))
	}
}

// BenchmarkTraceStampOverhead is everything the controller pays per
// completed query at the default sampling rate: the sampling decision,
// the four completion-side histogram records plus the per-type serve
// record, and (for the sampled ~1/64) the ring write.
func BenchmarkTraceStampOverhead(b *testing.B) {
	reg := NewRegistry(1024, "bench")
	mo := reg.Model("bench")
	serve := mo.ServeHist("g4dn.xlarge")
	typeID := reg.Intern("g4dn.xlarge")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := int64(i)
		d := time.Duration(900 + i*53)
		traced := mo.Sampled(id)
		mo.Record(StageQueue, d/4)
		mo.Record(StageFlight, d)
		mo.Record(StageServe, d/2)
		mo.Record(StageE2E, d+d/4)
		serve.Record(d / 2)
		if traced {
			mo.Trace(&TraceRecord{
				ID: id, StartUnixNano: int64(i), Batch: 8,
				QueueNS: int64(d / 4), FlightNS: int64(d),
				ServeNS: int64(d / 2), E2ENS: int64(d + d/4),
			}, typeID)
		}
	}
}
