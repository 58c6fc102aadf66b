package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPercentileNearestRank(t *testing.T) {
	tens := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct{ p, want float64 }{
		{10, 10}, {50, 50}, {90, 90}, {99, 100}, {100, 100}, {1, 10},
	} {
		if got := percentile(tens, tc.p); got != tc.want {
			t.Errorf("P%v(10..100) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

// TestSortedPercentileIsTheOneRankRule pins the nearest-rank arithmetic
// behind every simulated QoS check: a 50-sample set's p99 is its largest
// sample (rank ceil(0.99·50) = 50, not index int(0.99·49) = 48), and
// p ≤ 100/n clamps to the smallest. digest, which sorts arrival-order
// latencies itself, reads its percentiles by the same rule.
func TestSortedPercentileIsTheOneRankRule(t *testing.T) {
	fifty := make([]float64, 50)
	for i := range fifty {
		fifty[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{
		{99, 50}, {99.9, 50}, {98, 49}, {50, 25}, {2, 1}, {1, 1}, {1e-9, 1},
	} {
		if got := percentile(fifty, tc.p); got != tc.want {
			t.Errorf("P%v(1..50) = %v, want %v", tc.p, got, tc.want)
		}
	}
	reversed := make([]float64, len(fifty))
	for i, v := range fifty {
		reversed[len(fifty)-1-i] = v
	}
	if s, _ := digest(reversed, 1000); s.P50 != 25 || s.P95 != 48 || s.P99 != 50 {
		t.Errorf("digest(50..1) = %+v, want p50=25 p95=48 p99=50", s)
	}
}

// TestPercentileMonotoneInP checks P(a) <= P(b) for a <= b on random data,
// and that P100 is the maximum.
func TestPercentileMonotoneInP(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	samples := make([]float64, 257)
	for i := range samples {
		samples[i] = rng.NormFloat64()
	}
	sort.Float64s(samples)
	prev := math.Inf(-1)
	for p := 1.0; p <= 100; p += 0.5 {
		v := percentile(samples, p)
		if v < prev {
			t.Fatalf("percentile not monotone at p=%v", p)
		}
		prev = v
	}
	if percentile(samples, 100) != samples[len(samples)-1] {
		t.Fatal("P100 must be the max")
	}
}

func TestSummary(t *testing.T) {
	lats := make([]float64, 100)
	for i := range lats {
		lats[i] = float64(100 - i) // arrival order need not be sorted
	}
	s, _ := digest(lats, 1000)
	if s.Count != 100 || s.P50 != 50 || s.P95 != 95 || s.P99 != 99 || s.Max != 100 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Mean-50.5) > 1e-9 {
		t.Fatalf("mean = %v", s.Mean)
	}
	if s.String() == "" {
		t.Fatal("empty summary string")
	}
}

func TestViolationRate(t *testing.T) {
	for _, tc := range []struct{ qos, want float64 }{
		{30, 0.4}, // the boundary counts as meeting QoS
		{100, 0},
		{0, 1},
	} {
		if _, got := digest([]float64{50, 10, 40, 20, 30}, tc.qos); got != tc.want {
			t.Fatalf("violation rate at QoS %v = %v, want %v", tc.qos, got, tc.want)
		}
	}
}

// TestMeetsQoSConsistentWithViolationRate: p99 <= qos holds exactly when
// at most 1% of samples exceed qos (up to one sample of rounding).
func TestMeetsQoSConsistentWithViolationRate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500) + 1
		lats := make([]float64, n)
		for i := range lats {
			lats[i] = rng.Float64() * 100
		}
		qos := rng.Float64() * 100
		s, rate := digest(lats, qos)
		meets := s.P99 <= qos
		return !(meets && rate > 0.01+1e-12) && !(!meets && rate <= 0.01-1.0/float64(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMeetsQoSEmpty: a run that measured nothing trivially meets QoS.
func TestMeetsQoSEmpty(t *testing.T) {
	if res := summarize(ClusterSpec{}, nil, Options{DurationMS: 1000}); !res.MeetsQoS || res.Measured.Count != 0 {
		t.Fatalf("empty run: %+v", res)
	}
}
