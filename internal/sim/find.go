package sim

import (
	"math"
	"math/rand"

	"kairos/internal/workload"
)

// FindOptions configure the allowable-throughput measurement.
type FindOptions struct {
	// ProbeQueries fixes the per-probe sample size: each probe run lasts
	// ProbeQueries/rate seconds so high-QPS models do not need
	// proportionally longer simulations. Takes precedence over DurationMS
	// when both are set; defaults to 4000 when neither is set.
	ProbeQueries int
	// DurationMS is the fixed arrival horizon per probe run (used when
	// ProbeQueries is zero).
	DurationMS float64
	// WarmupMS is excluded from measurement (only meaningful with a fixed
	// DurationMS; adaptive probes use a 1/6 warmup fraction).
	WarmupMS float64
	// Seed fixes the random streams; every probe reuses the same seed
	// (common random numbers) so the feasibility frontier is stable.
	Seed int64
	// Batches is the batch-size distribution (default trace-like mix).
	Batches workload.BatchDistribution
	// PrecisionFrac terminates the bisection when hi-lo <= PrecisionFrac*hi
	// (default 2%).
	PrecisionFrac float64
	// MaxRate bounds the search (default 4x the capacity estimate).
	MaxRate float64
	// MinRate is the smallest rate worth probing (default 1 QPS); a
	// configuration that cannot sustain MinRate reports 0.
	MinRate float64
}

func (o FindOptions) withDefaults() FindOptions {
	if o.DurationMS == 0 && o.ProbeQueries == 0 {
		o.ProbeQueries = 4000
	}
	if o.DurationMS != 0 && o.WarmupMS == 0 {
		o.WarmupMS = o.DurationMS / 6
	}
	if o.Batches == nil {
		o.Batches = workload.DefaultTrace()
	}
	if o.PrecisionFrac == 0 {
		o.PrecisionFrac = 0.02
	}
	if o.MinRate == 0 {
		o.MinRate = 1
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
// numbers. Returns 0 when even FindOptions.MinRate violates QoS.
func FindAllowableThroughput(spec ClusterSpec, factory DistributorFactory, opts FindOptions) float64 {
	opts = opts.withDefaults()
	if spec.Config.Total() == 0 {
		return 0
	}

	feasible := func(rate float64) bool {
		duration := opts.DurationMS
		warmup := opts.WarmupMS
		if opts.ProbeQueries > 0 {
			duration = float64(opts.ProbeQueries) / rate * 1000
			if duration < 2000 {
				duration = 2000
			}
			warmup = duration / 6
		}
		res := Run(spec, factory(), Options{
			RatePerSec: rate,
			DurationMS: duration,
			WarmupMS:   warmup,
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
	maxRate := opts.MaxRate
	if maxRate == 0 {
		maxRate = 4 * capacityEstimate(spec, meanBatch)
	}
	if maxRate < opts.MinRate {
		maxRate = opts.MinRate
	}

	// Bracket the feasibility frontier starting from a capacity-informed
	// guess instead of ramping from 1 QPS.
	var lo, hi float64
	start := maxRate / 8
	if start < opts.MinRate {
		start = opts.MinRate
	}
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
		if start <= opts.MinRate || !feasible(opts.MinRate) {
			return 0
		}
		lo, hi = opts.MinRate, start
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
