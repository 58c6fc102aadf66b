package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPercentileNearestRank(t *testing.T) {
	samples := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		p    float64
		want float64
	}{
		{10, 10},
		{50, 50},
		{90, 90},
		{99, 100},
		{100, 100},
		{1, 10},
	}
	for _, tc := range cases {
		if got := Percentile(samples, tc.p); got != tc.want {
			t.Errorf("P%v = %v, want %v", tc.p, got, tc.want)
		}
	}
}

// TestSortedPercentileIsTheOneRankRule pins the nearest-rank arithmetic
// every caller shares: a 50-sample bucket's p99 is its largest sample
// (rank ceil(0.99*50) = 50, not index int(0.99*49) = 48), and p <= 100/n
// clamps to the smallest.
func TestSortedPercentileIsTheOneRankRule(t *testing.T) {
	sorted := make([]float64, 50)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{
		{99, 50}, {99.9, 50}, {98, 49}, {50, 25}, {2, 1}, {1, 1}, {1e-9, 1},
	} {
		if got := SortedPercentile(sorted, tc.p); got != tc.want {
			t.Errorf("SortedPercentile(1..50, %v) = %v, want %v", tc.p, got, tc.want)
		}
		if got := Percentile(sorted, tc.p); got != tc.want {
			t.Errorf("Percentile(1..50, %v) = %v, want %v", tc.p, got, tc.want)
		}
		r := NewLatencyRecorder(len(sorted))
		for i := len(sorted) - 1; i >= 0; i-- {
			r.Record(sorted[i])
		}
		if got := r.Percentile(tc.p); got != tc.want {
			t.Errorf("LatencyRecorder(1..50).Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	samples := []float64{3, 1, 2}
	Percentile(samples, 50)
	if samples[0] != 3 || samples[1] != 1 || samples[2] != 2 {
		t.Fatalf("input mutated: %v", samples)
	}
}

func TestPercentileEmpty(t *testing.T) {
	if !math.IsNaN(Percentile(nil, 99)) {
		t.Fatal("empty percentile should be NaN")
	}
}

func TestPercentilePanicsOutOfRange(t *testing.T) {
	for _, p := range []float64{0, -5, 101} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for p=%v", p)
				}
			}()
			Percentile([]float64{1}, p)
		}()
	}
}

func TestRecorderMatchesFreeFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := NewLatencyRecorder(0)
	var all []float64
	for i := 0; i < 1000; i++ {
		v := rng.ExpFloat64() * 100
		r.Record(v)
		all = append(all, v)
	}
	for _, p := range []float64{1, 25, 50, 75, 95, 99, 100} {
		if got, want := r.Percentile(p), Percentile(all, p); got != want {
			t.Errorf("P%v: recorder %v, free %v", p, got, want)
		}
	}
	if r.Count() != 1000 {
		t.Errorf("Count = %d", r.Count())
	}
}

func TestRecorderInterleavedRecordAndRead(t *testing.T) {
	r := NewLatencyRecorder(4)
	r.Record(5)
	if got := r.Percentile(99); got != 5 {
		t.Fatalf("P99 after one sample = %v", got)
	}
	r.Record(1) // must invalidate cached sort
	if got := r.Percentile(50); got != 1 {
		t.Fatalf("P50 = %v, want 1", got)
	}
	if got := r.Max(); got != 5 {
		t.Fatalf("Max = %v, want 5", got)
	}
}

func TestViolationRate(t *testing.T) {
	r := NewLatencyRecorder(0)
	for _, v := range []float64{10, 20, 30, 40, 50} {
		r.Record(v)
	}
	if got := r.ViolationRate(30); got != 0.4 {
		t.Fatalf("ViolationRate(30) = %v, want 0.4 (boundary counts as meeting QoS)", got)
	}
	if got := r.ViolationRate(100); got != 0 {
		t.Fatalf("ViolationRate(100) = %v, want 0", got)
	}
	if got := r.ViolationRate(0); got != 1 {
		t.Fatalf("ViolationRate(0) = %v, want 1", got)
	}
}

func TestMeetsQoSConsistentWithViolationRate(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		r := NewLatencyRecorder(0)
		n := local.Intn(500) + 1
		for i := 0; i < n; i++ {
			r.Record(rng.Float64() * 100)
		}
		qos := rng.Float64() * 100
		// p99 <= qos  <=>  violation rate <= 1%.
		meets := r.MeetsQoS(qos, 99)
		rate := r.ViolationRate(qos)
		if meets && rate > 0.01+1e-12 {
			return false
		}
		if !meets && rate <= 0.01-1.0/float64(n) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeetsQoSEmpty(t *testing.T) {
	r := NewLatencyRecorder(0)
	if !r.MeetsQoS(10, 99) {
		t.Fatal("empty recorder trivially meets QoS")
	}
}

func TestReset(t *testing.T) {
	r := NewLatencyRecorder(0)
	r.Record(1)
	r.Reset()
	if r.Count() != 0 {
		t.Fatal("Reset did not clear samples")
	}
	if !math.IsNaN(r.Mean()) {
		t.Fatal("Mean after reset should be NaN")
	}
}

func TestSummary(t *testing.T) {
	r := NewLatencyRecorder(0)
	for i := 1; i <= 100; i++ {
		r.Record(float64(i))
	}
	s := r.Summarize()
	if s.Count != 100 || s.P50 != 50 || s.P99 != 99 || s.Max != 100 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Mean-50.5) > 1e-9 {
		t.Fatalf("mean = %v", s.Mean)
	}
	if s.String() == "" {
		t.Fatal("empty summary string")
	}
}

// TestPercentileMonotoneInP checks P(a) <= P(b) for a <= b on random data.
func TestPercentileMonotoneInP(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	samples := make([]float64, 257)
	for i := range samples {
		samples[i] = rng.NormFloat64()
	}
	sort.Float64s(samples)
	prev := math.Inf(-1)
	for p := 1.0; p <= 100; p += 0.5 {
		v := Percentile(samples, p)
		if v < prev {
			t.Fatalf("percentile not monotone at p=%v", p)
		}
		prev = v
	}
	if Percentile(samples, 100) != samples[len(samples)-1] {
		t.Fatal("P100 must be the max")
	}
}

func TestWindowRolls(t *testing.T) {
	w := NewWindow(4)
	if w.Len() != 0 || !math.IsNaN(w.Percentile(99)) || !math.IsNaN(w.Mean()) {
		t.Fatal("empty window must report NaN percentiles")
	}
	for i := 1; i <= 4; i++ {
		w.Observe(float64(i))
	}
	if w.Full() || w.Len() != 4 || w.Mean() != 2.5 {
		t.Fatalf("filled window: len=%d full=%v mean=%v", w.Len(), w.Full(), w.Mean())
	}
	// Two more observations evict the two oldest: window is {3,4,5,6}.
	w.Observe(5)
	w.Observe(6)
	if !w.Full() || w.Len() != 4 || w.Total() != 6 {
		t.Fatalf("len=%d full=%v total=%d after rolling", w.Len(), w.Full(), w.Total())
	}
	if got := w.Mean(); got != 4.5 {
		t.Fatalf("rolled mean = %v, want 4.5 (oldest evicted)", got)
	}
	if got := w.Percentile(50); got != 4 {
		t.Fatalf("rolled p50 = %v, want 4", got)
	}
	if got := w.Percentile(100); got != 6 {
		t.Fatalf("rolled p100 = %v, want 6", got)
	}
	snap := w.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot length %d", len(snap))
	}
	w.Reset()
	if w.Len() != 0 || w.Total() != 0 || w.Full() {
		t.Fatal("reset must clear the window")
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
