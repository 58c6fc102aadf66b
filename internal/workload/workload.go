// Package workload generates and characterizes the inference query streams
// that drive the evaluation: batch-size distributions (the paper's default
// is a log-normal production-trace shape, with Gaussian used for the load
// change and robustness studies), Poisson query arrivals (Sec. 7), and the
// sliding-window query monitor Kairos uses to learn the batch-size mix
// online (Sec. 5.2: "a number of most recent queries, e.g. 10000 queries").
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// MaxBatch mirrors models.MaxBatch; duplicated to keep this package free of
// higher-level imports.
const MaxBatch = 1000

// BatchDistribution samples query batch sizes in [1, MaxBatch].
type BatchDistribution interface {
	// Sample draws one batch size.
	Sample(rng *rand.Rand) int
	// Name identifies the distribution for reports.
	Name() string
}

// clampBatch truncates a real-valued draw into the valid batch range.
func clampBatch(v float64) int {
	b := int(math.Round(v))
	if b < 1 {
		return 1
	}
	if b > MaxBatch {
		return MaxBatch
	}
	return b
}

// LogNormal is the default trace-like distribution: heavy mass on small
// batches with a long tail of large ones (Fig. 12 calls the paper's default
// "Log-norm").
type LogNormal struct {
	// Mu and Sigma parametrize ln(batch) ~ N(Mu, Sigma).
	Mu, Sigma float64
}

// Sample implements BatchDistribution.
func (d LogNormal) Sample(rng *rand.Rand) int {
	return clampBatch(math.Exp(d.Mu + d.Sigma*rng.NormFloat64()))
}

// Name implements BatchDistribution.
func (d LogNormal) Name() string { return fmt.Sprintf("lognormal(mu=%.2f,sigma=%.2f)", d.Mu, d.Sigma) }

// Gaussian is a truncated normal batch-size distribution (Sec. 7: "Gaussian
// distribution is another commonly used distribution for online services").
type Gaussian struct {
	Mean, Std float64
}

// Sample implements BatchDistribution.
func (d Gaussian) Sample(rng *rand.Rand) int {
	return clampBatch(d.Mean + d.Std*rng.NormFloat64())
}

// Name implements BatchDistribution.
func (d Gaussian) Name() string { return fmt.Sprintf("gaussian(mean=%.0f,std=%.0f)", d.Mean, d.Std) }

// Uniform draws batch sizes uniformly from [Min, Max].
type Uniform struct {
	Min, Max int
}

// Sample implements BatchDistribution.
func (d Uniform) Sample(rng *rand.Rand) int {
	if d.Min < 1 || d.Max > MaxBatch || d.Min > d.Max {
		panic(fmt.Sprintf("workload: invalid uniform range [%d,%d]", d.Min, d.Max))
	}
	return d.Min + rng.Intn(d.Max-d.Min+1)
}

// Name implements BatchDistribution.
func (d Uniform) Name() string { return fmt.Sprintf("uniform(%d,%d)", d.Min, d.Max) }

// Fixed always returns the same batch size; useful in unit tests.
type Fixed int

// Sample implements BatchDistribution.
func (d Fixed) Sample(*rand.Rand) int { return clampBatch(float64(d)) }

// Name implements BatchDistribution.
func (d Fixed) Name() string { return fmt.Sprintf("fixed(%d)", int(d)) }

// Empirical resamples from a recorded set of batch sizes (bootstrap), the
// way a replayed production trace behaves.
type Empirical struct {
	Batches []int
	label   string
}

// NewEmpirical validates and wraps recorded batch sizes.
func NewEmpirical(batches []int, label string) (Empirical, error) {
	if len(batches) == 0 {
		return Empirical{}, fmt.Errorf("workload: empty empirical trace")
	}
	for i, b := range batches {
		if b < 1 || b > MaxBatch {
			return Empirical{}, fmt.Errorf("workload: trace batch %d at index %d outside [1,%d]", b, i, MaxBatch)
		}
	}
	return Empirical{Batches: batches, label: label}, nil
}

// Sample implements BatchDistribution.
func (d Empirical) Sample(rng *rand.Rand) int { return d.Batches[rng.Intn(len(d.Batches))] }

// Name implements BatchDistribution.
func (d Empirical) Name() string {
	if d.label != "" {
		return d.label
	}
	return fmt.Sprintf("empirical(n=%d)", len(d.Batches))
}

// DefaultTrace is the log-normal stand-in for the Meta production batch
// trace the paper replays: median 60 requests per query with a long tail
// (P(batch > 300) ~ 9%, P(batch = 1000 cap) ~ 1%).
func DefaultTrace() BatchDistribution { return LogNormal{Mu: math.Log(60), Sigma: 1.2} }

// DefaultGaussian is the Gaussian mix used after the load change in Fig. 12
// and for the robustness study in Fig. 16a.
func DefaultGaussian() BatchDistribution { return Gaussian{Mean: 200, Std: 120} }

// Arrival is one query arrival: a timestamp (ms) and a batch size.
type Arrival struct {
	AtMS  float64
	Batch int
}

// PoissonStream generates arrivals of a Poisson process with the given rate
// (queries per second) over [0, durationMS), batch sizes drawn from dist.
// The paper generates query inter-arrivals from a Poisson process at 100s
// of queries per second (Sec. 7).
func PoissonStream(rng *rand.Rand, dist BatchDistribution, ratePerSec, durationMS float64) []Arrival {
	if ratePerSec <= 0 {
		panic(fmt.Sprintf("workload: non-positive rate %v", ratePerSec))
	}
	meanGapMS := 1000 / ratePerSec
	var out []Arrival
	t := rng.ExpFloat64() * meanGapMS
	for t < durationMS {
		out = append(out, Arrival{AtMS: t, Batch: dist.Sample(rng)})
		t += rng.ExpFloat64() * meanGapMS
	}
	return out
}

// Monitor is Kairos's sliding-window query monitor: it tracks the most
// recent window batch sizes, the snapshot the planner consumes, without any
// offline profiling. It is safe for concurrent use: the autopilot feeds it
// from completions while planners snapshot it.
type Monitor struct {
	mu      sync.Mutex
	window  int
	batches []int
	next    int
}

// DefaultWindow is the paper's monitoring window of 10000 queries.
const DefaultWindow = 10000

// NewMonitor creates a monitor holding the most recent window batch sizes.
func NewMonitor(window int) *Monitor {
	if window <= 0 {
		panic("workload: monitor window must be positive")
	}
	return &Monitor{window: window, batches: make([]int, 0, window)}
}

// Observe records one query's batch size.
func (m *Monitor) Observe(batch int) {
	if batch < 1 || batch > MaxBatch {
		panic(fmt.Sprintf("workload: observed batch %d outside [1,%d]", batch, MaxBatch))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.batches) < m.window {
		m.batches = append(m.batches, batch)
		return
	}
	m.batches[m.next] = batch
	m.next = (m.next + 1) % m.window
}

// Count returns the number of batch sizes currently tracked.
func (m *Monitor) Count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.batches)
}

// MeanBatch returns the average tracked batch size, or 0 when empty.
func (m *Monitor) MeanBatch() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.batches) == 0 {
		return 0
	}
	sum := 0
	for _, b := range m.batches {
		sum += b
	}
	return float64(sum) / float64(len(m.batches))
}

// Snapshot returns a copy of the tracked batch sizes in unspecified order.
func (m *Monitor) Snapshot() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int, len(m.batches))
	copy(out, m.batches)
	return out
}
