package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"kairos/internal/workload"
)

// Options configure one simulation run.
type Options struct {
	// RatePerSec is the Poisson query arrival rate; ignored when Arrivals
	// is supplied.
	RatePerSec float64
	// DurationMS is the arrival horizon; the run continues past it until
	// every query completes.
	DurationMS float64
	// WarmupMS excludes the initial transient from measurement: only
	// queries arriving in [WarmupMS, DurationMS) count.
	WarmupMS float64
	// Seed drives arrival times and batch sizes.
	Seed int64
	// Batches is the batch-size distribution; defaults to the trace-like
	// log-normal mix.
	Batches workload.BatchDistribution
	// Arrivals, when non-nil, replaces the generated Poisson stream
	// (deterministic replay; used by unit tests and the Fig. 5 walk-through).
	Arrivals []workload.Arrival
	// MaxMatchPerRound caps how many waiting queries a single scheduling
	// round exposes to the distributor (oldest first). Zero means
	// max(64, 4x instance count); the cap only binds past saturation where
	// the central queue grows without bound.
	MaxMatchPerRound int
}

// Result summarizes one run.
type Result struct {
	// TotalQueries is the number of queries that arrived overall.
	TotalQueries int
	// Measured counts only queries arriving inside the measurement window.
	Measured Summary
	// P99 is the 99th-percentile end-to-end latency of measured queries.
	P99 float64
	// ViolationRate is the fraction of measured queries exceeding QoS.
	ViolationRate float64
	// QPS is the measured arrival-window throughput (queries/second) —
	// meaningful only when QoS holds.
	QPS float64
	// MeetsQoS reports P99 <= model QoS.
	MeetsQoS bool
	// MeanWaitMS is the mean central-queue wait of measured queries.
	MeanWaitMS float64
	// BusyMSByType sums service time per instance type over the whole run
	// (utilization accounting for the experiment reports).
	BusyMSByType map[string]float64
	// ServedByType counts queries served per instance type.
	ServedByType map[string]int
}

type eventKind int

const (
	evArrival eventKind = iota
	evCompletion
)

type event struct {
	at   float64
	seq  int // tie-break for determinism
	kind eventKind
	// query is the arriving query for evArrival, the finishing query for
	// evCompletion.
	query *Query
	// instance is the completing instance for evCompletion.
	instance int
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// instance is the engine-side server state.
type instance struct {
	typeName string
	// inFlight is the query being served, nil when idle.
	inFlight *Query
	// freeAt is when inFlight completes (meaningless when idle).
	freeAt float64
	// queue holds dispatched-but-not-started queries in FIFO order.
	queue []*Query
}

// Run executes one simulation of spec under the given distribution policy
// and returns aggregate results.
func Run(spec ClusterSpec, dist Distributor, opts Options) Result {
	queries, types := run(spec, dist, opts)
	res := summarize(spec, queries, opts)
	res.BusyMSByType = make(map[string]float64, 4)
	res.ServedByType = make(map[string]int, 4)
	for _, q := range queries {
		tn := types[q.Instance]
		res.BusyMSByType[tn] += q.FinishMS - q.StartMS
		res.ServedByType[tn]++
	}
	return res
}

// Trace executes one simulation and returns every query in arrival order
// with its timing fields populated; used by the Fig. 5 walk-through and the
// examples.
func Trace(spec ClusterSpec, dist Distributor, opts Options) []*Query {
	queries, _ := run(spec, dist, opts)
	return queries
}

// run is the engine core shared by Run and Trace.
func run(spec ClusterSpec, dist Distributor, opts Options) ([]*Query, []string) {
	if opts.DurationMS <= 0 && opts.Arrivals == nil {
		panic("sim: DurationMS must be positive")
	}
	if opts.WarmupMS < 0 || (opts.DurationMS > 0 && opts.WarmupMS >= opts.DurationMS) {
		panic(fmt.Sprintf("sim: warmup %v outside [0,duration)", opts.WarmupMS))
	}
	batches := opts.Batches
	if batches == nil {
		batches = workload.DefaultTrace()
	}
	arrivals := opts.Arrivals
	if arrivals == nil {
		rng := rand.New(rand.NewSource(opts.Seed))
		arrivals = workload.PoissonStream(rng, batches, opts.RatePerSec, opts.DurationMS)
	}

	types := spec.InstanceTypes()
	insts := make([]instance, len(types))
	for i, tn := range types {
		insts[i] = instance{typeName: tn}
	}
	oracle := spec.oracle()
	observer, _ := dist.(Observer)

	matchCap := opts.MaxMatchPerRound
	if matchCap <= 0 {
		matchCap = 4 * len(insts)
		if matchCap < 64 {
			matchCap = 64
		}
	}

	var h eventHeap
	seq := 0
	push := func(e event) {
		e.seq = seq
		seq++
		heap.Push(&h, e)
	}
	queries := make([]*Query, len(arrivals))
	for i, a := range arrivals {
		q := &Query{ID: i, Batch: a.Batch, ArrivalMS: a.AtMS, Instance: -1}
		queries[i] = q
		push(event{at: a.AtMS, kind: evArrival, query: q})
	}

	var waiting []*Query

	startService := func(now float64, idx int, q *Query) {
		in := &insts[idx]
		service := oracle.Latency(in.typeName, q.Batch)
		q.StartMS = now
		q.FinishMS = now + service
		q.Instance = idx
		in.inFlight = q
		in.freeAt = q.FinishMS
		push(event{at: q.FinishMS, kind: evCompletion, query: q, instance: idx})
	}

	// schedule runs one distribution round if there is work and capacity.
	schedule := func(now float64) {
		if len(waiting) == 0 || len(insts) == 0 {
			return
		}
		exposed := waiting
		if len(exposed) > matchCap {
			exposed = exposed[:matchCap]
		}
		qviews := make([]QueryView, len(exposed))
		for i, q := range exposed {
			qviews[i] = QueryView{Index: i, Batch: q.Batch, WaitMS: now - q.ArrivalMS}
		}
		iviews := make([]InstanceView, len(insts))
		for i := range insts {
			in := &insts[i]
			remaining := 0.0
			if in.inFlight != nil {
				remaining = in.freeAt - now
				if remaining < 0 {
					remaining = 0
				}
			}
			var qb []int
			if len(in.queue) > 0 {
				qb = make([]int, len(in.queue))
				for k, q := range in.queue {
					qb[k] = q.Batch
				}
			}
			iviews[i] = InstanceView{Index: i, TypeName: in.typeName, RemainingMS: remaining, QueuedBatches: qb}
		}

		assignments := dist.Assign(now, qviews, iviews)
		if len(assignments) == 0 {
			return
		}
		taken := make([]bool, len(exposed))
		// Dispatch in the distributor's order.
		var dispatched []int
		for _, a := range assignments {
			if a.Query < 0 || a.Query >= len(exposed) {
				panic(fmt.Sprintf("sim: %s assigned out-of-range query %d", dist.Name(), a.Query))
			}
			if a.Instance < 0 || a.Instance >= len(insts) {
				panic(fmt.Sprintf("sim: %s assigned out-of-range instance %d", dist.Name(), a.Instance))
			}
			if taken[a.Query] {
				panic(fmt.Sprintf("sim: %s assigned query %d twice", dist.Name(), a.Query))
			}
			taken[a.Query] = true
			dispatched = append(dispatched, a.Query)
			q := exposed[a.Query]
			in := &insts[a.Instance]
			if in.inFlight == nil && len(in.queue) == 0 {
				startService(now, a.Instance, q)
			} else {
				in.queue = append(in.queue, q)
			}
		}
		// Compact the central waiting list preserving arrival order.
		sort.Ints(dispatched)
		next := waiting[:0]
		di := 0
		for i, q := range waiting {
			if di < len(dispatched) && dispatched[di] == i {
				di++
				continue
			}
			next = append(next, q)
		}
		waiting = next
	}

	for h.Len() > 0 {
		e := heap.Pop(&h).(event)
		now := e.at
		switch e.kind {
		case evArrival:
			waiting = append(waiting, e.query)
		case evCompletion:
			in := &insts[e.instance]
			in.inFlight = nil
			if observer != nil {
				q := e.query
				observer.Observe(in.typeName, q.Batch, q.FinishMS-q.StartMS)
			}
			if len(in.queue) > 0 {
				next := in.queue[0]
				in.queue = in.queue[1:]
				startService(now, e.instance, next)
			}
		}
		// Coalesce simultaneous events into one scheduling round.
		if h.Len() > 0 && h[0].at == now {
			continue
		}
		schedule(now)
	}

	if len(waiting) > 0 {
		// Every query must be dispatched by the time arrivals stop and all
		// service completes; a distributor that strands queries is buggy.
		panic(fmt.Sprintf("sim: %s left %d queries stranded", dist.Name(), len(waiting)))
	}

	return queries, types
}

func summarize(spec ClusterSpec, queries []*Query, opts Options) Result {
	endMS := opts.DurationMS
	if opts.Arrivals != nil {
		endMS = math.Inf(1)
	}
	lats := make([]float64, 0, len(queries))
	waitSum := 0.0
	measured := 0
	var firstArrival, lastArrival float64
	for _, q := range queries {
		if q.ArrivalMS < opts.WarmupMS || q.ArrivalMS >= endMS {
			continue
		}
		if q.Instance == -1 {
			panic("sim: unserved query in measurement window")
		}
		if measured == 0 {
			firstArrival = q.ArrivalMS
		}
		lastArrival = q.ArrivalMS
		measured++
		lats = append(lats, q.Latency())
		waitSum += q.StartMS - q.ArrivalMS
	}
	res := Result{TotalQueries: len(queries)}
	if measured == 0 {
		res.MeetsQoS = true
		return res
	}
	res.Measured, res.ViolationRate = digest(lats, spec.Model.QoS)
	res.P99 = res.Measured.P99
	res.MeetsQoS = res.P99 <= spec.Model.QoS
	res.MeanWaitMS = waitSum / float64(measured)
	span := lastArrival - firstArrival
	if span > 0 {
		res.QPS = float64(measured-1) / span * 1000
	}
	return res
}
