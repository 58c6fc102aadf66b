package sim

import (
	"math/rand"
	"sort"

	"kairos/internal/cloud"
	"kairos/internal/models"
	"kairos/internal/workload"
)

// OracleOptions configure the ORCL reference evaluation (Sec. 7): a
// practically infeasible scheme that knows the whole query sequence in
// advance, sorts it by batch size, feeds base instances from the largest
// end and auxiliary instances from the smallest end, with no queue waits
// and no QoS-violating placements.
type OracleOptions struct {
	// Queries is how many batch samples form the sequence.
	Queries int
	// Seed drives the batch sampling.
	Seed int64
	// Batches is the batch-size distribution (default trace-like mix).
	Batches workload.BatchDistribution
}

func (o OracleOptions) withDefaults() OracleOptions {
	if o.Queries == 0 {
		o.Queries = 20000
	}
	if o.Batches == nil {
		o.Batches = workload.DefaultTrace()
	}
	return o
}

type freeSlot struct {
	at  float64
	idx int
}

func (s freeSlot) before(o freeSlot) bool {
	if s.at != o.at {
		return s.at < o.at
	}
	return s.idx < o.idx
}

// OracleThroughput computes the ORCL throughput of one configuration: the
// QPS achieved serving the sorted sequence with clairvoyant placement.
func OracleThroughput(spec ClusterSpec, opts OracleOptions) float64 {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	batches := make([]int, opts.Queries)
	for i := range batches {
		batches[i] = opts.Batches.Sample(rng)
	}
	return oracleOnBatches(spec, batches)
}

// oracleOnBatches runs the two-pointer list schedule over a concrete batch
// multiset.
func oracleOnBatches(spec ClusterSpec, batches []int) float64 {
	types := spec.InstanceTypes()
	if len(types) == 0 || len(batches) == 0 {
		return 0
	}
	sorted := make([]int, len(batches))
	copy(sorted, batches)
	sort.Ints(sorted)

	service := spec.serviceTimes()
	base := spec.Pool.Base().Name
	cutoffs := make([]int, len(types))
	isBase := make([]bool, len(types))
	for i, tn := range types {
		isBase[i] = tn == base
		cutoffs[i] = spec.Model.CutoffBatch(tn)
	}
	// Without a base instance the largest queries can never run under QoS:
	// ORCL refuses QoS-violating placements, so the sequence cannot be
	// drained and the allowable throughput is zero whenever any query
	// exceeds every cutoff.
	lo, hi := 0, len(sorted)-1
	h := make(minHeap[freeSlot], 0, len(types))
	for i := range types {
		h.push(freeSlot{at: 0, idx: i})
	}
	served := 0
	makespan := 0.0
	for lo <= hi && len(h) > 0 {
		slot := h.pop()
		i := slot.idx
		var b int
		if isBase[i] {
			b = sorted[hi]
			hi--
		} else {
			if sorted[lo] > cutoffs[i] {
				// The smallest remaining query violates QoS here; since lo
				// only moves right, this instance can never serve again and
				// is not re-queued.
				continue
			}
			b = sorted[lo]
			lo++
		}
		finish := slot.at + service(types[i], b)
		served++
		if finish > makespan {
			makespan = finish
		}
		h.push(freeSlot{at: finish, idx: i})
	}
	if lo <= hi {
		// Unserved queries remain (no base instances): ORCL cannot sustain
		// this mix at any rate without violating QoS.
		return 0
	}
	if makespan == 0 {
		return 0
	}
	return float64(served) / makespan * 1000
}

// OracleSearch exhaustively evaluates ORCL over every configuration within
// the budget and returns the best configuration and its throughput. The
// paper uses this offline search both as the ORCL reference and to hand the
// competing schemes their best configurations (Sec. 8.2).
func OracleSearch(pool cloud.Pool, model models.Model, budget float64, opts OracleOptions) (cloud.Config, float64) {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	batches := make([]int, opts.Queries)
	for i := range batches {
		batches[i] = opts.Batches.Sample(rng)
	}
	var best cloud.Config
	bestQPS := -1.0
	for _, cfg := range pool.Enumerate(budget) {
		spec := ClusterSpec{Pool: pool, Config: cfg, Model: model}
		qps := oracleOnBatches(spec, batches)
		if qps > bestQPS {
			bestQPS = qps
			best = cfg
		}
	}
	return best, bestQPS
}
