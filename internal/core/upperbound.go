package core

import (
	"fmt"
	"sort"

	"kairos/internal/cloud"
	"kairos/internal/models"
)

// UpperBoundRaw evaluates Eq. 15 from aggregated quantities:
//
//	u       – number of base instances,
//	qB      – one base instance's QPS over the full query mix,
//	qBSPlus – one base instance's QPS over queries larger than the shared
//	          auxiliary region (the s+ queries),
//	vQa     – per auxiliary type, count times standalone QPS over queries
//	          inside the shared region (v_i * Q_a^i),
//	fPrime  – fraction of queries inside the shared auxiliary region.
//
// The return value is the throughput upper bound QPS_max: no distribution
// policy can exceed it on this hardware (Def. 2).
func UpperBoundRaw(u int, qB, qBSPlus float64, vQa []float64, fPrime float64) float64 {
	sumAux := 0.0
	for _, v := range vQa {
		sumAux += v
	}
	if fPrime <= 0 || sumAux == 0 {
		// No auxiliary coverage: the base instances serve everything.
		return float64(u) * qB
	}
	if fPrime >= 1 {
		// Every query fits the auxiliary region; the offload stream to the
		// base vanishes (C = 0) and the base contributes its full rate.
		return sumAux + float64(u)*qB
	}
	base := float64(u) * qBSPlus
	c := sumAux * (1 - fPrime) / fPrime // Eq. 14
	if base <= c {
		// Base is the bottleneck (Eq. 12).
		return base / (1 - fPrime)
	}
	// Auxiliary is the bottleneck; add the base slack throughput (Eq. 13).
	slack := 0.0
	if base > 0 {
		slack = (base - c) / base * float64(u) * qB
	}
	return sumAux/fPrime + slack
}

// Estimator computes throughput upper bounds for configurations of a pool
// serving one model under an observed workload mix. It needs only the
// latency surface and a sample of recent batch sizes from the query
// monitor — no online evaluation (Sec. 5.2).
type Estimator struct {
	pool cloud.Pool

	sorted []int // ascending batch samples

	// cutoffs[i] is pool type i's QoS cutoff batch (model.CutoffBatch).
	cutoffs []int

	// latPrefix[i][k] sums type i's latencies over sorted[:k]: any
	// conditional mean over a sorted-sample range is then two loads and a
	// divide, so ranking a 100k-configuration space (Fig. 15a's 4x budget)
	// stays cheap.
	latPrefix [][]float64

	// The window's aggregates upperBoundInto reads.
	qB      float64    // base-type QPS over the whole window
	regions []ubRegion // one per distinct positive auxiliary cutoff
}

// ubRegion holds Eq. 15's sample-dependent aggregates for one candidate
// shared auxiliary region (one distinct positive aux cutoff): every
// configuration whose allocated auxiliary types share this sMax reuses
// them, so evaluating a configuration costs a handful of multiplies.
type ubRegion struct {
	sMax    int
	fPrime  float64
	qBSPlus float64
	qa      []float64 // standalone region QPS per pool index (0 for base)
}

// NewEstimator builds an estimator from recent batch-size samples (the
// query monitor's snapshot; Sec. 5.2 uses the last ~10000 queries). For a
// relaxed latency target (Fig. 15b), pass model.WithQoS. The samples are
// counting-sorted: batch sizes live in [1, models.MaxBatch], so one
// bucket pass replaces the comparison sort.
func NewEstimator(pool cloud.Pool, model models.Model, samples []int) (*Estimator, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("core: estimator needs batch samples")
	}
	counts := make([]int, models.MaxBatch+1)
	for _, b := range samples {
		if b < 1 || b > models.MaxBatch {
			return nil, fmt.Errorf("core: batch samples outside [1,%d]", models.MaxBatch)
		}
		counts[b]++
	}
	e := &Estimator{pool: pool, cutoffs: make([]int, len(pool)), sorted: make([]int, 0, len(samples))}
	for i, t := range pool {
		e.cutoffs[i] = model.CutoffBatch(t.Name)
	}
	for b, n := range counts {
		for ; n > 0; n-- {
			e.sorted = append(e.sorted, b)
		}
	}
	e.latPrefix = make([][]float64, len(pool))
	for i, t := range pool {
		pfx := make([]float64, len(e.sorted)+1)
		// The window is sorted, so the curve is read once per distinct size.
		sum, lat, prev := 0.0, 0.0, 0
		for k, b := range e.sorted {
			if b != prev {
				lat, prev = model.Latency(t.Name, b), b
			}
			sum += lat
			pfx[k+1] = sum
		}
		e.latPrefix[i] = pfx
	}
	e.prepare()
	return e, nil
}

// prepare precomputes the per-region aggregates upperBoundInto reads, so
// a frontier scan evaluates each candidate configuration in a few
// dozen nanoseconds instead of re-deriving conditional means per call.
// NewEstimator runs it once, so evaluation only ever reads.
func (e *Estimator) prepare() {
	e.qB = e.meanQPS(cloud.BaseIndex, 0, len(e.sorted))
regions:
	for i := range e.pool {
		if i == cloud.BaseIndex || e.cutoffs[i] == 0 {
			continue
		}
		s := e.cutoffs[i]
		for _, r := range e.regions {
			if r.sMax == s {
				continue regions
			}
		}
		split := sort.SearchInts(e.sorted, s+1)
		r := ubRegion{
			sMax:    s,
			fPrime:  float64(split) / float64(len(e.sorted)),
			qBSPlus: e.meanQPS(cloud.BaseIndex, split, len(e.sorted)),
			qa:      make([]float64, len(e.pool)),
		}
		for j := range e.pool {
			if j != cloud.BaseIndex {
				r.qa[j] = e.meanQPS(j, 0, split)
			}
		}
		e.regions = append(e.regions, r)
	}
}

// upperBoundInto is the one Eq. 15 assembly: it prices cfg off the
// window's prepared aggregates, building v_i * Q_a^i in a caller-owned
// scratch buffer (PlanFleet threads one through every frontier scan of a
// call, so the scans allocate nothing; UpperBound passes nil).
func (e *Estimator) upperBoundInto(cfg cloud.Config, scratch []float64) (float64, []float64) {
	u := cfg[cloud.BaseIndex]
	sMax := 0
	for i := range e.pool {
		if i != cloud.BaseIndex && cfg[i] != 0 && e.cutoffs[i] > sMax {
			sMax = e.cutoffs[i]
		}
	}
	if sMax == 0 {
		return UpperBoundRaw(u, e.qB, 0, nil, 0), scratch
	}
	var reg *ubRegion
	for k := range e.regions {
		if e.regions[k].sMax == sMax {
			reg = &e.regions[k]
			break
		}
	}
	scratch = scratch[:0]
	for i := range e.pool {
		if i == cloud.BaseIndex || cfg[i] == 0 {
			continue
		}
		scratch = append(scratch, float64(cfg[i])*reg.qa[i])
	}
	return UpperBoundRaw(u, e.qB, reg.qBSPlus, scratch, reg.fPrime), scratch
}

// Cutoff returns the QoS cutoff batch size s for pool type index i.
func (e *Estimator) Cutoff(i int) int { return e.cutoffs[i] }

// meanQPS returns the standalone QPS of one instance of pool type i over
// the sample batches in the half-open index range [lo, hi) of the sorted
// samples: 1000 / mean latency, read off the per-type latency prefix
// sums. Returns 0 for an empty range.
func (e *Estimator) meanQPS(i, lo, hi int) float64 {
	if lo >= hi {
		return 0
	}
	pfx := e.latPrefix[i]
	mean := (pfx[hi] - pfx[lo]) / float64(hi-lo)
	if mean > 0 {
		return 1000 / mean
	}
	return 0
}

// UpperBound computes QPS_max for one configuration (Eq. 15 with the
// shared-region approximation for multiple auxiliary types).
func (e *Estimator) UpperBound(cfg cloud.Config) float64 {
	if len(cfg) != len(e.pool) {
		panic(fmt.Sprintf("core: config %v does not match pool of %d types", cfg, len(e.pool)))
	}
	ub, _ := e.upperBoundInto(cfg, nil)
	return ub
}

// RankedConfig pairs a configuration with its upper bound.
type RankedConfig struct {
	Config     cloud.Config
	UpperBound float64
}

// Rank computes upper bounds for every configuration within the budget and
// returns them sorted by descending bound (ties broken by config key for
// determinism). This is the paper's warmup-phase computation: an
// order-1000-configuration space ranks in well under two seconds (Sec. 5.2).
func (e *Estimator) Rank(budget float64) []RankedConfig {
	configs := e.pool.Enumerate(budget)
	ranked := make([]RankedConfig, len(configs))
	for i, cfg := range configs {
		ranked[i] = RankedConfig{Config: cfg, UpperBound: e.UpperBound(cfg)}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].UpperBound != ranked[j].UpperBound {
			return ranked[i].UpperBound > ranked[j].UpperBound
		}
		return ranked[i].Config.Key() < ranked[j].Config.Key()
	})
	return ranked
}
