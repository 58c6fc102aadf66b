package autopilot

import (
	"fmt"

	"kairos/internal/models"
)

// DefaultDriftBins is the histogram resolution used for drift detection.
const DefaultDriftBins = 20

// DefaultDriftThreshold is the total-variation distance above which the mix is
// considered drifted (0 = identical, 1 = disjoint).
const DefaultDriftThreshold = 0.15

// DriftDetector measures how far the current batch-size mix has moved from
// a reference snapshot, using total-variation distance over a fixed
// histogram of the [1, MaxBatch] range — the drift trigger of the Fig. 12
// adaptation loop (Sec. 5.2: the planner needs only the query monitor's
// recent window, so detecting that the window moved is all that adapting
// takes).
type DriftDetector struct {
	bins      int
	reference []float64
}

// NewDriftDetector builds a detector from a reference sample of batch
// sizes (e.g. the monitor snapshot at planning time).
func NewDriftDetector(reference []int, bins int) (*DriftDetector, error) {
	if bins <= 0 {
		bins = DefaultDriftBins
	}
	if len(reference) == 0 {
		return nil, fmt.Errorf("autopilot: empty reference sample")
	}
	d := &DriftDetector{bins: bins}
	var err error
	d.reference, err = histogram(reference, bins)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// histogram builds a normalized histogram over [1, MaxBatch].
func histogram(samples []int, bins int) ([]float64, error) {
	h := make([]float64, bins)
	for _, b := range samples {
		if b < 1 || b > models.MaxBatch {
			return nil, fmt.Errorf("autopilot: batch %d outside [1,%d]", b, models.MaxBatch)
		}
		idx := (b - 1) * bins / models.MaxBatch
		if idx >= bins {
			idx = bins - 1
		}
		h[idx]++
	}
	n := float64(len(samples))
	for i := range h {
		h[i] /= n
	}
	return h, nil
}

// Distance returns the total-variation distance in [0, 1] between the
// reference mix and the current sample.
func (d *DriftDetector) Distance(current []int) (float64, error) {
	cur, err := histogram(current, d.bins)
	if err != nil {
		return 0, err
	}
	tv := 0.0
	for i := range cur {
		diff := cur[i] - d.reference[i]
		if diff < 0 {
			diff = -diff
		}
		tv += diff
	}
	return tv / 2, nil
}
