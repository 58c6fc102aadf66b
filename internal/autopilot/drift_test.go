package autopilot

import (
	"testing"

	"kairos/internal/models"
	"kairos/internal/workload"
)

func TestDriftDetectorValidation(t *testing.T) {
	if _, err := NewDriftDetector(nil, 10); err == nil {
		t.Fatal("empty reference must error")
	}
	if _, err := NewDriftDetector([]int{0}, 10); err == nil {
		t.Fatal("out-of-range batch must error")
	}
	d, err := NewDriftDetector([]int{50, 60, 70}, 0) // bins default
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Distance([]int{2000}); err == nil {
		t.Fatal("out-of-range current must error")
	}
}

func TestDistanceIdenticalAndDisjoint(t *testing.T) {
	same := samplesOf(workload.DefaultTrace(), 5000, 1)
	d, err := NewDriftDetector(same, DefaultDriftBins)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := d.Distance(same)
	if err != nil || dist != 0 {
		t.Fatalf("self distance = %v, %v", dist, err)
	}
	// Disjoint supports: tiny queries vs huge queries.
	small, _ := NewDriftDetector([]int{1, 2, 3, 4, 5}, DefaultDriftBins)
	dist, err = small.Distance([]int{990, 995, 1000})
	if err != nil || dist != 1 {
		t.Fatalf("disjoint distance = %v, %v", dist, err)
	}
}

func TestDistanceSamplingNoiseIsSmall(t *testing.T) {
	a := samplesOf(workload.DefaultTrace(), 8000, 2)
	b := samplesOf(workload.DefaultTrace(), 8000, 3) // same law, fresh sample
	d, err := NewDriftDetector(a, DefaultDriftBins)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := d.Distance(b)
	if err != nil {
		t.Fatal(err)
	}
	if dist > 0.05 {
		t.Fatalf("same-law distance %v too large", dist)
	}
	// And a genuine shift is far larger.
	shift := samplesOf(workload.Gaussian{Mean: 550, Std: 150}, 8000, 4)
	dist2, _ := d.Distance(shift)
	if dist2 < 0.4 {
		t.Fatalf("shifted distance %v too small", dist2)
	}
}

func TestDriftDetectorSingleBin(t *testing.T) {
	// With one histogram bin every mix collapses to the same distribution:
	// drift is never detectable, by construction.
	d, err := NewDriftDetector([]int{1, 2, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := d.Distance([]int{998, 999, 1000})
	if err != nil || dist != 0 {
		t.Fatalf("single-bin distance = %v, %v (want exactly 0)", dist, err)
	}
}

func TestDriftDetectorConstantMix(t *testing.T) {
	// A constant batch size compared against itself: zero TV distance.
	ref := make([]int, 100)
	for i := range ref {
		ref[i] = 500
	}
	d, err := NewDriftDetector(ref, DefaultDriftBins)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := d.Distance(ref[:7])
	if err != nil || dist != 0 {
		t.Fatalf("constant-mix self distance = %v, %v", dist, err)
	}
	// A constant in a different bin: total disjointness, distance 1.
	dist, err = d.Distance([]int{1, 1, 1})
	if err != nil || dist != 1 {
		t.Fatalf("constant-vs-constant disjoint distance = %v, %v", dist, err)
	}
}

func TestDriftDetectorWindowShorterThanBins(t *testing.T) {
	// Fewer samples than bins: histograms stay normalized and distances
	// stay in [0,1] — a short live window never breaks the trigger.
	ref := []int{10, 500, 990}
	d, err := NewDriftDetector(ref, DefaultDriftBins)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := d.Distance(ref)
	if err != nil || dist != 0 {
		t.Fatalf("short-window self distance = %v, %v", dist, err)
	}
	dist, err = d.Distance([]int{250})
	if err != nil {
		t.Fatal(err)
	}
	if dist < 0 || dist > 1 {
		t.Fatalf("distance %v outside [0,1]", dist)
	}
	// 1 of 3 reference samples shares no bin with {10}: TV = 2/3 against
	// the singleton current window.
	dist, err = d.Distance([]int{10})
	if err != nil {
		t.Fatal(err)
	}
	if diff := dist - 2.0/3.0; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("singleton-window distance = %v, want 2/3", dist)
	}
}

func TestDriftDetectorRejectsOutOfRange(t *testing.T) {
	d, err := NewDriftDetector([]int{100}, DefaultDriftBins)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Distance([]int{0}); err == nil {
		t.Fatal("batch 0 must error")
	}
	if _, err := d.Distance([]int{models.MaxBatch + 1}); err == nil {
		t.Fatal("batch above MaxBatch must error")
	}
	if _, err := NewDriftDetector([]int{-5}, DefaultDriftBins); err == nil {
		t.Fatal("negative reference batch must error")
	}
}
