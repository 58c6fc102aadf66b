package workload

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestDistributionsStayInRange(t *testing.T) {
	dists := []BatchDistribution{
		DefaultTrace(),
		DefaultGaussian(),
		LogNormal{Mu: 7, Sigma: 2}, // pushes past MaxBatch often; must clamp
		Gaussian{Mean: -50, Std: 10},
		Uniform{Min: 1, Max: 1000},
		Fixed(500),
	}
	rng := rand.New(rand.NewSource(1))
	for _, d := range dists {
		for i := 0; i < 5000; i++ {
			b := d.Sample(rng)
			if b < 1 || b > MaxBatch {
				t.Fatalf("%s sampled %d outside [1,%d]", d.Name(), b, MaxBatch)
			}
		}
		if d.Name() == "" {
			t.Fatalf("%T has empty name", d)
		}
	}
}

func TestDefaultTraceShape(t *testing.T) {
	// The trace stand-in must be dominated by small queries with a real
	// large-query tail, the regime the paper's heterogeneity argument needs.
	rng := rand.New(rand.NewSource(2))
	d := DefaultTrace()
	n := 50000
	small, large := 0, 0
	for i := 0; i < n; i++ {
		b := d.Sample(rng)
		if b <= 100 {
			small++
		}
		if b >= 500 {
			large++
		}
	}
	fSmall := float64(small) / float64(n)
	fLarge := float64(large) / float64(n)
	if fSmall < 0.55 || fSmall > 0.85 {
		t.Errorf("fraction of batch<=100 = %v, want in [0.55,0.85]", fSmall)
	}
	if fLarge < 0.01 || fLarge > 0.15 {
		t.Errorf("fraction of batch>=500 = %v, want in [0.01,0.15]", fLarge)
	}
}

func TestUniformPanicsOnBadRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []Uniform{{Min: 0, Max: 10}, {Min: 5, Max: 4}, {Min: 1, Max: 2000}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %+v", d)
				}
			}()
			d.Sample(rng)
		}()
	}
}

func TestEmpiricalValidation(t *testing.T) {
	if _, err := NewEmpirical(nil, ""); err == nil {
		t.Fatal("empty trace must error")
	}
	if _, err := NewEmpirical([]int{5, 0}, ""); err == nil {
		t.Fatal("out-of-range batch must error")
	}
	e, err := NewEmpirical([]int{10, 20, 30}, "mytrace")
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "mytrace" {
		t.Fatalf("name = %s", e.Name())
	}
	rng := rand.New(rand.NewSource(3))
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		seen[e.Sample(rng)] = true
	}
	for b := range seen {
		if b != 10 && b != 20 && b != 30 {
			t.Fatalf("sampled %d not in trace", b)
		}
	}
}

func TestPoissonStreamRate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rate := 150.0
	durMS := 60000.0
	arr := PoissonStream(rng, Fixed(10), rate, durMS)
	got := float64(len(arr)) / (durMS / 1000)
	if math.Abs(got-rate)/rate > 0.1 {
		t.Fatalf("empirical rate %v, want ~%v", got, rate)
	}
	prev := 0.0
	for _, a := range arr {
		if a.AtMS < prev || a.AtMS >= durMS {
			t.Fatal("arrivals must be ordered within [0,duration)")
		}
		prev = a.AtMS
	}
}

func TestPoissonStreamDeterministic(t *testing.T) {
	a := PoissonStream(rand.New(rand.NewSource(5)), DefaultTrace(), 100, 1000)
	b := PoissonStream(rand.New(rand.NewSource(5)), DefaultTrace(), 100, 1000)
	if len(a) != len(b) {
		t.Fatal("same seed produced different stream lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestPoissonStreamPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PoissonStream(rand.New(rand.NewSource(1)), Fixed(1), 0, 100)
}

func TestMonitorWindowEviction(t *testing.T) {
	m := NewMonitor(3)
	for _, b := range []int{10, 20, 30} {
		m.Observe(b)
	}
	if m.Count() != 3 {
		t.Fatalf("count = %d", m.Count())
	}
	m.Observe(40) // evicts 10
	if m.Count() != 3 {
		t.Fatalf("count after eviction = %d", m.Count())
	}
	got := m.Snapshot()
	slices.Sort(got)
	if !slices.Equal(got, []int{20, 30, 40}) {
		t.Fatalf("snapshot after eviction = %v", got)
	}
	if mean := m.MeanBatch(); mean != 30 {
		t.Fatalf("mean = %v, want 30", mean)
	}
}

func TestMonitorEmptyBehaviour(t *testing.T) {
	m := NewMonitor(10)
	if m.Count() != 0 || m.MeanBatch() != 0 {
		t.Fatal("empty monitor must return zeros")
	}
	if len(m.Snapshot()) != 0 {
		t.Fatal("empty snapshot")
	}
}

func TestMonitorAdaptsToDistributionShift(t *testing.T) {
	// Fig. 12's premise: after the workload shifts, the monitor's view
	// converges to the new distribution within one window.
	m := NewMonitor(1000)
	for i := 0; i < 1000; i++ {
		m.Observe(50)
	}
	if mean := m.MeanBatch(); mean != 50 {
		t.Fatalf("before shift mean = %v", mean)
	}
	for i := 0; i < 1000; i++ {
		m.Observe(500) // shift: all large
	}
	if slices.Contains(m.Snapshot(), 50) || m.MeanBatch() != 500 {
		t.Fatalf("after a full window the old mix is still visible: mean %v", m.MeanBatch())
	}
}

func TestMonitorObservePanics(t *testing.T) {
	m := NewMonitor(5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Observe(0)
}

func TestNewMonitorPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMonitor(0)
}

func TestMonitorConcurrentObserveAndRead(t *testing.T) {
	// The autopilot feeds the monitor from completions while planners
	// snapshot it; run under -race.
	m := NewMonitor(100)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000; i++ {
			m.Observe(i%MaxBatch + 1)
		}
	}()
	for i := 0; i < 500; i++ {
		m.Snapshot()
		m.Count()
		m.MeanBatch()
	}
	<-done
}
