package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketBoundaries(t *testing.T) {
	var h Histogram
	// Exactly on a bound lands in that bucket (bounds are inclusive
	// upper edges); one past it lands in the next.
	for _, b := range []int{0, 1, 17, numBuckets - 1} {
		v := boundsNS[b]
		if got := bucketOf(v); got != b {
			t.Fatalf("bucketOf(bound %d = %d) = %d", b, v, got)
		}
		if got := bucketOf(v + 1); got != b+1 {
			t.Fatalf("bucketOf(bound %d + 1) = %d, want %d", b, got, b+1)
		}
	}
	if got := bucketOf(0); got != 0 {
		t.Fatalf("bucketOf(0) = %d", got)
	}
	// Overflow and negative clamp.
	h.Record(time.Duration(boundsNS[numBuckets-1]) * 2)
	h.Record(-time.Second)
	s := h.Snapshot()
	if s.Counts[numBuckets] != 1 {
		t.Fatalf("overflow bucket = %d, want 1", s.Counts[numBuckets])
	}
	if s.Counts[0] != 1 {
		t.Fatalf("negative duration should clamp into bucket 0, got %d", s.Counts[0])
	}
	if s.Count != 2 {
		t.Fatalf("count = %d, want 2", s.Count)
	}
}

func TestHistogramQuantileErrorBounds(t *testing.T) {
	// For any point mass v at or above the 1µs resolution floor, the
	// quantile estimate must be within a factor of √2 (the bucket
	// growth factor) of v.
	for _, v := range []time.Duration{
		999, 1000, 1001, 5 * time.Microsecond, 733 * time.Microsecond,
		3 * time.Millisecond, 250 * time.Millisecond, 7 * time.Second,
	} {
		var h Histogram
		for i := 0; i < 100; i++ {
			h.Record(v)
		}
		for _, p := range []float64{0.5, 0.99, 0.999} {
			est := float64(h.Quantile(p))
			ratio := est / float64(v)
			if ratio < 1/math.Sqrt2-1e-9 || ratio > math.Sqrt2+1e-9 {
				t.Fatalf("Quantile(%g) of point mass %v = %v (ratio %.3f), outside √2 bound", p, v, time.Duration(est), ratio)
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
	if p50 := h.Quantile(0.50); p50 > 2*time.Millisecond {
		t.Fatalf("p50 = %v, want ~1ms", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 70*time.Millisecond {
		t.Fatalf("p99 = %v, want ~100ms", p99)
	}
	var empty Histogram
	if q := empty.Quantile(0.99); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
	// Below the resolution floor everything collapses into bucket 0:
	// the estimate saturates under 1µs rather than blowing up.
	var tiny Histogram
	tiny.Record(3 * time.Nanosecond)
	if q := tiny.Quantile(0.5); q <= 0 || q > time.Microsecond {
		t.Fatalf("sub-floor quantile = %v, want (0, 1µs]", q)
	}
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
