// Package distributor implements the competing query-distribution schemes
// the paper evaluates Kairos against (Sec. 7): Ribbon's base-preferring
// FCFS, DeepRecSys's static batch-size threshold (DRS) with its
// hill-climbing tuner, and Clockwork's latency-consolidating central
// controller (CLKWRK). All of them implement sim.Distributor.
package distributor

import (
	"fmt"
	"math"

	"kairos/internal/predictor"
	"kairos/internal/sim"
)

// Options are shared knobs for the baseline schemes.
type Options struct {
	// QoS is the model's tail-latency target in ms.
	QoS float64
	// BaseType names the base instance type (preferred by Ribbon, the
	// large-query pool for DRS).
	BaseType string
	// Predictor estimates latencies. The paper grants the baselines
	// accurate predictions; experiments pass a ground-truth oracle.
	Predictor predictor.Predictor
}

// Validate reports whether the shared knobs are usable. Policy factories
// check ahead of construction and return the error; the constructors
// themselves still panic on the same conditions (internal misuse).
func (o Options) Validate() error {
	if o.QoS <= 0 {
		return fmt.Errorf("distributor: QoS must be positive (got %v)", o.QoS)
	}
	if o.BaseType == "" {
		return fmt.Errorf("distributor: BaseType required")
	}
	if o.Predictor == nil {
		return fmt.Errorf("distributor: Predictor required")
	}
	return nil
}

func (o Options) validate() {
	if err := o.Validate(); err != nil {
		panic(err)
	}
}

// Ribbon is the paper's RIBBON baseline: strict first-come-first-serve
// dispatch of the arrived query "on the best instance available" (Sec. 4),
// preferring the base type when multiple instances are idle. A query is
// held while no instance type that can meet its QoS is idle (Ribbon the
// system is QoS-aware, Table 1), with a liveness fallback to the fastest
// idle instance when no type in the cluster could ever serve the batch in
// time. Its weaknesses — head-of-line blocking and spending base instances
// on small queries — are why Fig. 3 and Fig. 9 place it last.
type Ribbon struct {
	opts Options
}

// NewRibbon builds the scheme.
func NewRibbon(opts Options) *Ribbon {
	opts.validate()
	return &Ribbon{opts: opts}
}

// Name implements sim.Distributor.
func (r *Ribbon) Name() string { return "RIBBON" }

// Assign implements sim.Distributor.
func (r *Ribbon) Assign(_ float64, waiting []sim.QueryView, instances []sim.InstanceView) []sim.Assignment {
	used := map[int]bool{}
	var out []sim.Assignment
	for _, q := range waiting {
		idx := r.placeIdle(q.Batch, instances, used)
		if idx == -1 {
			// Strict FCFS: the head of the line blocks everyone behind it.
			break
		}
		used[idx] = true
		out = append(out, sim.Assignment{Query: q.Index, Instance: idx})
	}
	return out
}

// placeIdle returns the index of an idle instance for the batch: an idle
// base instance if any, otherwise the fastest QoS-meeting idle instance.
// It returns -1 (hold the query) when a QoS-capable type exists in the
// cluster but none of its instances is idle.
func (r *Ribbon) placeIdle(batch int, instances []sim.InstanceView, used map[int]bool) int {
	idle := func(in sim.InstanceView) bool { return in.Backlog() == 0 && !used[in.Index] }
	meets := func(in sim.InstanceView) bool {
		return r.opts.Predictor.Predict(in.TypeName, batch) <= r.opts.QoS
	}
	for _, in := range instances {
		if in.TypeName == r.opts.BaseType && idle(in) {
			return in.Index
		}
	}
	best, bestLat := -1, math.Inf(1)
	for _, in := range instances {
		if !idle(in) || !meets(in) {
			continue
		}
		if lat := r.opts.Predictor.Predict(in.TypeName, batch); lat < bestLat {
			best, bestLat = in.Index, lat
		}
	}
	if best != -1 {
		return best
	}
	feasibleTypeExists := false
	for _, in := range instances {
		if meets(in) {
			feasibleTypeExists = true
			break
		}
	}
	if feasibleTypeExists {
		return -1 // wait for a capable instance to free up
	}
	// Liveness fallback: nothing in the cluster can ever meet QoS for this
	// batch; serve it on the fastest idle instance anyway.
	for _, in := range instances {
		if !idle(in) {
			continue
		}
		if lat := r.opts.Predictor.Predict(in.TypeName, batch); lat < bestLat {
			best, bestLat = in.Index, lat
		}
	}
	return best
}

// DRS is the DeepRecSys-style scheme: a static batch-size threshold decides
// whether a query goes to the base (GPU) pool or the auxiliary (CPU) pool;
// each pool runs FCFS over its idle instances. The threshold is tuned per
// configuration by hill climbing (TuneDRSThreshold), which is exactly the
// per-configuration overhead the paper criticizes.
type DRS struct {
	opts Options
	// Threshold routes batch > Threshold to the base pool.
	threshold int
}

// NewDRS builds the scheme with the given routing threshold.
func NewDRS(opts Options, threshold int) *DRS {
	opts.validate()
	if threshold < 0 {
		panic("distributor: negative DRS threshold")
	}
	return &DRS{opts: opts, threshold: threshold}
}

// Name implements sim.Distributor.
func (d *DRS) Name() string { return fmt.Sprintf("DRS(t=%d)", d.threshold) }

// Assign implements sim.Distributor: two FCFS lanes (base pool and aux
// pool) with head-of-line blocking inside each lane.
func (d *DRS) Assign(_ float64, waiting []sim.QueryView, instances []sim.InstanceView) []sim.Assignment {
	hasBase, hasAux := false, false
	for _, in := range instances {
		if in.TypeName == d.opts.BaseType {
			hasBase = true
		} else {
			hasAux = true
		}
	}
	used := map[int]bool{}
	var out []sim.Assignment
	baseBlocked, auxBlocked := false, false
	for _, q := range waiting {
		toBase := q.Batch > d.threshold
		if toBase && !hasBase {
			toBase = false
		}
		if !toBase && !hasAux {
			toBase = true
		}
		if toBase && baseBlocked || !toBase && auxBlocked {
			continue
		}
		idx := -1
		for _, in := range instances {
			if used[in.Index] || in.Backlog() != 0 {
				continue
			}
			if (in.TypeName == d.opts.BaseType) == toBase {
				idx = in.Index
				break
			}
		}
		if idx == -1 {
			if toBase {
				baseBlocked = true
			} else {
				auxBlocked = true
			}
			if baseBlocked && auxBlocked {
				break
			}
			continue
		}
		used[idx] = true
		out = append(out, sim.Assignment{Query: q.Index, Instance: idx})
	}
	return out
}

// Clockwork is the CLKWRK baseline: a central controller that tracks every
// instance's queue timing, predicts query latency accurately, and sends
// each arriving query to a per-instance FCFS queue (Sec. 7). It places the
// query on the queue with the earliest predicted completion; since
// feasibility (completion + wait <= QoS) is monotone in completion time,
// this guarantees the query is served within its latency target unless no
// instance can meet it — the paper's description — while remaining
// heterogeneity-blind ("unlike Kairos, it does not optimize on
// heterogeneous instances", Sec. 2).
type Clockwork struct {
	opts Options
}

// NewClockwork builds the scheme.
func NewClockwork(opts Options) *Clockwork {
	opts.validate()
	return &Clockwork{opts: opts}
}

// Name implements sim.Distributor.
func (c *Clockwork) Name() string { return "CLKWRK" }

// Assign implements sim.Distributor: every waiting query is dispatched
// immediately; queries never wait centrally.
func (c *Clockwork) Assign(_ float64, waiting []sim.QueryView, instances []sim.InstanceView) []sim.Assignment {
	// drain[i] tracks each instance's projected busy time as this round's
	// queries pile onto the queues.
	drain := make(map[int]float64, len(instances))
	for _, in := range instances {
		d := in.RemainingMS
		for _, b := range in.QueuedBatches {
			d += c.opts.Predictor.Predict(in.TypeName, b)
		}
		drain[in.Index] = d
	}
	out := make([]sim.Assignment, 0, len(waiting))
	for _, q := range waiting {
		best, bestAt := -1, math.Inf(1)
		var bestType string
		for _, in := range instances {
			finish := drain[in.Index] + c.opts.Predictor.Predict(in.TypeName, q.Batch)
			if finish < bestAt {
				best, bestAt = in.Index, finish
				bestType = in.TypeName
			}
		}
		drain[best] += c.opts.Predictor.Predict(bestType, q.Batch)
		out = append(out, sim.Assignment{Query: q.Index, Instance: best})
	}
	return out
}
