package sim

import (
	"math"
	"math/rand"

	"kairos/internal/workload"
)

// FindOptions configure the allowable-throughput measurement.
type FindOptions struct {
	// ProbeQueries fixes the per-probe sample size: each probe run lasts
	// ProbeQueries/rate seconds (at least 2 s, the first sixth warm-up)
	// so high-QPS models do not need proportionally longer simulations.
	// Defaults to 4000.
	ProbeQueries int
	// Seed fixes the random streams; every probe reuses the same seed
	// (common random numbers) so the feasibility frontier is stable.
	Seed int64
	// Batches is the batch-size distribution (default trace-like mix).
	Batches workload.BatchDistribution
	// PrecisionFrac terminates the bisection when hi-lo <= PrecisionFrac*hi
	// (default 2%).
	PrecisionFrac float64
}

// The search bracket: the smallest rate worth probing (a configuration
// that cannot sustain it reports 0) and the ceiling as a multiple of the
// capacity estimate.
const (
	minProbeRate     = 1
	maxRateOverBound = 4
)

func (o FindOptions) withDefaults() FindOptions {
	if o.ProbeQueries == 0 {
		o.ProbeQueries = 4000
	}
	if o.Batches == nil {
		o.Batches = workload.DefaultTrace()
	}
	if o.PrecisionFrac == 0 {
		o.PrecisionFrac = 0.02
	}
	return o
}

// DistributorFactory builds a fresh policy instance per probe run, so that
// stateful policies (online learners) start each probe from the
// same state instead of leaking information across rates.
type DistributorFactory func() Distributor

// Static wraps a stateless distributor as a factory.
func Static(d Distributor) DistributorFactory { return func() Distributor { return d } }

// capacityEstimate bounds the cluster's aggregate service rate by assuming
// every instance serves mean-batch queries back to back; it ignores QoS and
// so over-estimates, which is what a bisection bracket needs.
func capacityEstimate(spec ClusterSpec, meanBatch int) float64 {
	total := 0.0
	for _, tn := range spec.InstanceTypes() {
		total += 1000 / spec.Model.Latency(tn, meanBatch)
	}
	return total
}

// FindAllowableThroughput measures the paper's allowable throughput: the
// maximum Poisson arrival rate whose 99th-percentile latency stays within
// the model's QoS target (Sec. 3, Sec. 7). It brackets the feasibility
// frontier geometrically and refines by bisection under common random
// numbers. Returns 0 when even 1 QPS violates QoS.
func FindAllowableThroughput(spec ClusterSpec, factory DistributorFactory, opts FindOptions) float64 {
	opts = opts.withDefaults()
	if spec.Config.Total() == 0 {
		return 0
	}

	feasible := func(rate float64) bool {
		duration := max(float64(opts.ProbeQueries)/rate*1000, 2000)
		res := Run(spec, factory(), Options{
			RatePerSec: rate,
			DurationMS: duration,
			WarmupMS:   duration / 6,
			Seed:       opts.Seed,
			Batches:    opts.Batches,
		})
		return res.MeetsQoS && res.Measured.Count > 0
	}

	// Probe mean batch once for the capacity bracket.
	const probes = 2000
	rng, sum := rand.New(rand.NewSource(opts.Seed)), 0
	for i := 0; i < probes; i++ {
		sum += opts.Batches.Sample(rng)
	}
	meanBatch := int(math.Round(float64(sum) / probes))
	if meanBatch < 1 {
		meanBatch = 1
	}
	maxRate := max(maxRateOverBound*capacityEstimate(spec, meanBatch), minProbeRate)

	// Bracket the feasibility frontier starting from a capacity-informed
	// guess instead of ramping from 1 QPS.
	var lo, hi float64
	start := max(maxRate/8, minProbeRate)
	if feasible(start) {
		lo = start
		hi = start * 2
		for hi < maxRate && feasible(hi) {
			lo = hi
			hi *= 2
		}
		if hi >= maxRate {
			hi = maxRate
			if feasible(hi) {
				return hi
			}
		}
	} else {
		if start <= minProbeRate || !feasible(minProbeRate) {
			return 0
		}
		lo, hi = minProbeRate, start
	}
	for hi-lo > opts.PrecisionFrac*hi {
		mid := (lo + hi) / 2
		if feasible(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
