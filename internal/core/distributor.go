// Package core implements the paper's primary contribution: the Kairos
// query-distribution mechanism (Sec. 5.1) that maps waiting queries onto
// heterogeneous instances through min-cost bipartite matching, the
// throughput upper-bound estimator (Sec. 5.2, Eqs. 9-15), the one-shot
// similarity-based configuration selection, and the Kairos+ upper-bound-
// assisted pruning search (Algorithm 1).
package core

import (
	"math"
	"slices"

	"kairos/internal/assignment"
	"kairos/internal/cloud"
	"kairos/internal/models"
	"kairos/internal/predictor"
	"kairos/internal/sim"
)

// The policy's constants: one configuration of Sec. 5.1's matching.
const (
	// xi is the paper's noise safeguard: a completion time predicted
	// within 2% of the QoS target is already treated as a violation.
	xi = 0.98
	// penaltyFactor is Eq. 8's: an infeasible pair costs 10x the QoS
	// target.
	penaltyFactor = 10
	// agingFactor weights Eq. 3's W_i starvation-avoidance term: each
	// feasible cost is reduced by agingFactor*W_i. Subtracting a row
	// constant never changes which instance a query prefers — it only
	// promotes long-waiting queries into the matched set when queries
	// outnumber instances.
	agingFactor = 1
	// maxPending caps how many dispatched-but-unstarted queries an
	// instance may hold and still be matched. Eq. 6 admits one assignment
	// per instance per round; the L matrix's drain term prices the
	// queued backlog.
	maxPending = 1
	// lateBindSlackMS keeps an instance out of the matching until its
	// in-flight query is within this many milliseconds of completion.
	// Early commitment to a busy instance forgoes better placements that
	// appear before it frees; a small slack keeps pipelining without that
	// cost.
	lateBindSlackMS = 10
)

// DistributorOptions configure the Kairos query distributor.
type DistributorOptions struct {
	// QoS is the tail latency target T_qos in ms.
	QoS float64
	// BaseType is the base instance type name used to normalize the
	// heterogeneity coefficients (Def. 1).
	BaseType string
	// Predictor supplies latency estimates for the L matrix. Nil defaults
	// to a fresh online learner (the paper's no-prior-knowledge mode).
	Predictor predictor.Predictor
}

// Distributor is Kairos's query-distribution mechanism. It implements
// sim.Distributor and sim.Observer. It owns the scratch of its matching
// round, so it is not safe for concurrent use (the controller serializes a
// model's rounds) and a steady-state Assign allocates nothing.
type Distributor struct {
	opts DistributorOptions
	pred predictor.Predictor
	// penalty is the Eq. 8 cost of a QoS-violating pair, deadline the
	// completion time (xi * T_qos) past which a pair counts as one.
	penalty, deadline float64

	// Round scratch: grown to the largest round seen, rewritten every Assign.
	solver assignment.Workspace
	drain  []float64 // per instance: RemainingMS plus the predicted service of its pending batches
	cols   []column  // the eligible instances
	types  []typeRow // the instance types among them
	lat    []float64 // every type's row, end to end
	cost   []float64 // the Eq. 8 matrix, in the orientation the solver wants
	top    []int     // one instance's cheapest queries during pruning, cheapest first
	kept   []int     // the waiting positions that survive pruning, ascending
	doomed []int     // waiting positions that can no longer meet QoS anywhere
	out    []sim.Assignment
}

// column is one eligible instance in the round's matrix.
type column struct {
	pos   int       // position in the instances slice
	typ   int       // its type's index in Distributor.types
	coeff float64   // C_j of its type
	drain float64   // its entry of Distributor.drain
	lat   []float64 // its type's predicted latency per waiting query
	used  bool      // dispatched to this round
}

// typeRow is what instances of one type share in a round: the predictor
// is asked once per (type, query), not once per matrix cell.
type typeRow struct {
	name  string
	coeff float64
	lat   []float64 // a window of Distributor.lat
}

// resized returns s with length n, reallocating only when its capacity
// is short, and then to at least double it: the matrix and rows follow
// the queue's depth, and a queue deepening one query per round must not
// reallocate every round. The contents are unspecified.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// WarmedPredictor returns an online latency model pre-trained from the
// model's calibrated surface for every type in the pool, so Kairos starts
// from its own learned tables instead of replaying a cold start. Two probe
// batch sizes pin the exact line; the rest guard the lookup path.
func WarmedPredictor(pool cloud.Pool, m models.Model) *predictor.Online {
	names := make([]string, len(pool))
	for i, t := range pool {
		names[i] = t.Name
	}
	return predictor.Warmed(m.Latency, names, []int{1, 250, 500, 750, 1000})
}

// NewDistributor validates options and builds the distributor.
func NewDistributor(opts DistributorOptions) *Distributor {
	if opts.QoS <= 0 {
		panic("core: QoS target must be positive")
	}
	if opts.BaseType == "" {
		panic("core: BaseType required")
	}
	d := &Distributor{
		opts:     opts,
		pred:     opts.Predictor,
		penalty:  penaltyFactor * opts.QoS,
		deadline: xi * opts.QoS,
	}
	if d.pred == nil {
		d.pred = predictor.NewOnline()
	}
	return d
}

// Name implements sim.Distributor.
func (d *Distributor) Name() string { return "KAIROS" }

// Observe implements sim.Observer: completed queries train the online
// latency model.
func (d *Distributor) Observe(instance string, batch int, serviceMS float64) {
	d.pred.Observe(instance, batch, serviceMS)
}

// HorizonMS implements sim.Horizon: a query that has waited past the
// deadline misses it on every instance, whatever its latency there, so its
// Eq. 8 cost is the penalty everywhere.
func (d *Distributor) HorizonMS() float64 { return d.deadline }

// Coefficient returns the heterogeneity coefficient C_j of Def. 1 for the
// named type: the ratio of the largest query's latency on the base type to
// its latency on type j, normalized so the base type (fastest at the
// largest query) has coefficient 1. Falls back to 1 while the predictor
// has no data.
func (d *Distributor) Coefficient(typeName string) float64 {
	if typeName == d.opts.BaseType {
		return 1
	}
	baseLat := d.pred.Predict(d.opts.BaseType, models.MaxBatch)
	lat := d.pred.Predict(typeName, models.MaxBatch)
	if baseLat <= 0 || lat <= 0 {
		return 1
	}
	c := baseLat / lat
	if c > 1 {
		c = 1
	}
	return c
}

// Assign implements sim.Distributor: it builds the weighted, QoS-penalized
// L matrix over (waiting queries) x (instances with an empty local slot)
// and dispatches the min-cost matching (Eqs. 4-8). The result is valid
// until the next Assign.
func (d *Distributor) Assign(nowMS float64, waiting []sim.QueryView, instances []sim.InstanceView) []sim.Assignment {
	// Eligible instances hold fewer than maxPending queued queries and at
	// most lateBindSlackMS of in-flight work; the one-to-one mapping
	// constraint (Eq. 6) still admits at most one new dispatch per
	// instance per round, and the drain term prices the backlog.
	d.drain = resized(d.drain, len(instances))
	d.cols = d.cols[:0]
	for x, in := range instances {
		drain := in.RemainingMS
		for _, b := range in.QueuedBatches {
			drain += d.pred.Predict(in.TypeName, b)
		}
		d.drain[x] = drain
		if len(in.QueuedBatches) < maxPending && in.RemainingMS <= lateBindSlackMS {
			d.cols = append(d.cols, column{pos: x, drain: drain})
		}
	}
	if len(d.cols) == 0 || len(waiting) == 0 {
		return nil
	}
	d.priceTypes(waiting, instances)
	cost, col4row, byQuery := d.match(waiting)

	d.out = d.out[:0]
	d.doomed = d.doomed[:0]
	for r, c := range col4row {
		i, j := r, c
		if !byQuery {
			i, j = d.kept[c], r
		}
		// A feasible cost is at most xi*T_qos, below the penalty, so a
		// pair is penalized exactly when its cell holds the penalty.
		if cost.At(r, c) == d.penalty {
			// The min-cost solution could not find a QoS-respecting spot
			// for this query. If some instance (busy ones included) will
			// still be able to serve it within QoS once its backlog
			// drains, hold the query in the central queue and retry (the
			// paper's "wait in a queue until more resources become
			// available and restart another round of query distribution").
			// Waiting is free with respect to that claim: W_i grows exactly
			// as fast as the target's remaining time shrinks. A doomed
			// query — no feasible future slot anywhere — is
			// force-dispatched below.
			if !d.feasibleSlotExists(i, waiting[i], instances) {
				d.doomed = append(d.doomed, i)
			}
			continue
		}
		d.dispatch(waiting[i], instances, j)
	}
	// Doomed queries burn capacity no matter what; clear each on the
	// fastest-completing instance still free this round.
	for _, i := range d.doomed {
		j := d.fastestClearing(i)
		if j == -1 {
			break // every slot taken; retry next round
		}
		d.dispatch(waiting[i], instances, j)
	}
	return d.out
}

// match prices every (query, eligible instance) pair once (Eq. 8) and
// solves the matrix. The solver wants no more rows than columns: with at
// most as many queries as instances the rows are the queries (byQuery) and
// the columns d.cols; otherwise the rows are d.cols and the columns d.kept,
// the queries that survive pruning. col4row is the solver's, valid until
// its next solve.
func (d *Distributor) match(waiting []sim.QueryView) (cost assignment.Matrix, col4row []int, byQuery bool) {
	m, n := len(waiting), len(d.cols)
	byQuery = m <= n
	// Query i on eligible instance j sits at i*qStride + j*cStride.
	qStride, cStride := n, 1
	if !byQuery {
		qStride, cStride = 1, m
	}
	d.cost = resized(d.cost, m*n)
	for j, c := range d.cols {
		for i, q := range waiting {
			l := c.drain + c.lat[i]
			v := c.coeff*l - agingFactor*q.WaitMS
			if l+q.WaitMS > d.deadline {
				// Eq. 8 penalty. Unlike the paper's formulation we keep the
				// penalty outside the C_j weighting: with strongly
				// heterogeneous coefficients (C_j down to ~0.06 here) a
				// weighted penalty C_j*10*T_qos can undercut a feasible
				// base placement (1*T_qos) and the matching would prefer
				// the QoS-violating pair. An unweighted penalty preserves
				// the intended semantics: feasible pairs always win.
				v = d.penalty
			}
			d.cost[i*qStride+j*cStride] = v
		}
	}
	cost = assignment.Matrix{R: m, C: n, Data: d.cost}
	if !byQuery {
		cost = assignment.Matrix{R: n, C: d.prune(m), Data: d.cost}
	}
	col4row, err := d.solver.Solve(cost)
	if err != nil {
		// Finite costs cannot be infeasible; a failure here is a bug.
		panic("core: matching failed: " + err.Error())
	}
	return cost, col4row, byQuery
}

// findType returns the index of the round's row for an instance type, -1
// if no eligible instance is of that type.
func (d *Distributor) findType(name string) int {
	for k := range d.types {
		if d.types[k].name == name {
			return k
		}
	}
	return -1
}

// priceTypes fills d.types with one row per instance type among the
// eligible instances, in order of first appearance, and hands each column
// its type's coefficient and row. The rows share one backing array, d.lat,
// so a deepening queue grows one buffer, not one per type.
func (d *Distributor) priceTypes(waiting []sim.QueryView, instances []sim.InstanceView) {
	d.types = d.types[:0]
	for k := range d.cols {
		c := &d.cols[k]
		name := instances[c.pos].TypeName
		if c.typ = d.findType(name); c.typ < 0 {
			c.typ = len(d.types)
			d.types = append(d.types, typeRow{name: name})
		}
	}
	m := len(waiting)
	d.lat = resized(d.lat, len(d.types)*m)
	for k := range d.types {
		t := &d.types[k]
		t.coeff = d.Coefficient(t.name)
		t.lat = d.lat[k*m : (k+1)*m]
		for i, q := range waiting {
			t.lat[i] = d.pred.Predict(t.name, q.Batch)
		}
	}
	for k := range d.cols {
		c := &d.cols[k]
		c.coeff, c.lat = d.types[c.typ].coeff, d.types[c.typ].lat
	}
}

// prune shrinks the instances x m-queries matrix in d.cost to the columns
// a min-cost matching can need when queries outnumber the n eligible
// instances — for each instance its n cheapest queries, ties going to the
// older (lower) position — and returns how many those are (d.kept). An
// optimal matching restricted to that union exists: wherever one pairs an
// instance with a query outside the instance's n cheapest, one of those n
// is unmatched (the matching uses only n queries), and swapping it in
// costs no more. So the solve is over at most n*n columns however deep
// the queue, at unchanged total cost. The older-first tie-break is what
// lets sim.Round show this policy only the oldest late queries (HorizonMS):
// the penalised ties an instance keeps are the oldest n of them.
func (d *Distributor) prune(m int) int {
	n := len(d.cols)
	d.top = resized(d.top, n)
	d.kept = d.kept[:0]
	for j := 0; j < n; j++ {
		row, top := d.cost[j*m:(j+1)*m], d.top[:0]
		bound := math.Inf(1) // the dearest of a full top
		for i, v := range row {
			if v >= bound {
				continue
			}
			if len(top) < n {
				top = append(top, 0)
			}
			k := len(top) - 1
			for ; k > 0 && row[top[k-1]] > v; k-- {
				top[k] = top[k-1]
			}
			top[k] = i
			if len(top) == n {
				bound = row[top[n-1]]
			}
		}
		d.kept = append(d.kept, top...)
	}
	slices.Sort(d.kept)
	d.kept = slices.Compact(d.kept)
	// Compact in place: a cell only ever moves toward the front, past
	// cells already moved.
	k := len(d.kept)
	for j := 0; j < n; j++ {
		for u, i := range d.kept {
			d.cost[j*k+u] = d.cost[j*m+i]
		}
	}
	return k
}

// dispatch records query q going to eligible instance j.
func (d *Distributor) dispatch(q sim.QueryView, instances []sim.InstanceView, j int) {
	d.cols[j].used = true
	d.out = append(d.out, sim.Assignment{Query: q.Index, Instance: instances[d.cols[j].pos].Index})
}

// feasibleSlotExists reports whether any instance — counting its full
// in-flight plus pending drain — could still serve waiting query i within
// QoS. It reads the round's rows where they exist, so a round holds one
// prediction per (type, query) even under a noisy predictor.
func (d *Distributor) feasibleSlotExists(i int, q sim.QueryView, instances []sim.InstanceView) bool {
	for x, in := range instances {
		var lat float64
		if k := d.findType(in.TypeName); k >= 0 {
			lat = d.types[k].lat[i]
		} else {
			lat = d.pred.Predict(in.TypeName, q.Batch)
		}
		if d.drain[x]+lat+q.WaitMS <= d.deadline {
			return true
		}
	}
	return false
}

// fastestClearing picks the unused eligible instance with the earliest
// real completion (drain plus latency) for waiting query i, so a doomed
// query is done soonest. Returns -1 when every eligible instance is taken.
func (d *Distributor) fastestClearing(i int) int {
	best, bestAt := -1, 0.0
	for j, c := range d.cols {
		if c.used {
			continue
		}
		if at := c.drain + c.lat[i]; best == -1 || at < bestAt {
			best, bestAt = j, at
		}
	}
	return best
}

// Predictor exposes the distributor's latency model so callers can warm it
// or inspect it.
func (d *Distributor) Predictor() predictor.Predictor { return d.pred }
