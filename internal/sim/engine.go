package sim

import (
	"fmt"
	"math"
	"math/rand"

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

// event is an arrival (instance -1) or the completion of query on
// instance, ordered by time and then by push order.
type event struct {
	at       float64
	seq      int
	query    *Query
	instance int
}

func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// minHeap is a binary min-heap of values that order themselves, typed so
// that no push or pop boxes its value through any as the standard heap
// package's interface does.
type minHeap[T interface{ before(T) bool }] []T

func (h *minHeap[T]) push(x T) {
	s := append(*h, x)
	for i := len(s) - 1; i > 0 && s[i].before(s[(i-1)/2]); i = (i - 1) / 2 {
		s[i], s[(i-1)/2] = s[(i-1)/2], s[i]
	}
	*h = s
}

func (h *minHeap[T]) pop() T {
	s, n := *h, len(*h)-1
	top := s[0]
	s[0], s[n] = s[n], top
	s = s[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c+1 < n && s[c+1].before(s[c]) {
			c++
		}
		if c >= n || !s[c].before(s[i]) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}

// instance is the engine-side server state.
type instance struct {
	typeName string
	// inFlight is the query being served, nil when idle.
	inFlight *Query
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

// engine is one run under virtual time: the event heap, the central queue,
// and the fleet with its true service times. It is the State of the round
// it shares with the live controller.
type engine struct {
	dist     Distributor
	observer Observer
	service  func(instance string, batch int) float64
	insts    []instance
	events   minHeap[event]
	seq      int
	waiting  []*Query
	round    Round
	now      float64
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
	// Every arrival is pushed upfront and an instance has at most one
	// completion pending, so the heap never grows.
	e := &engine{dist: dist, service: spec.serviceTimes(), insts: make([]instance, len(types)),
		events: make(minHeap[event], 0, len(arrivals)+len(types))}
	e.observer, _ = dist.(Observer)
	for i, tn := range types {
		e.insts[i].typeName = tn
	}
	records := make([]Query, len(arrivals))
	queries := make([]*Query, len(arrivals))
	for i, a := range arrivals {
		records[i] = Query{ID: i, Batch: a.Batch, ArrivalMS: a.AtMS, Instance: -1}
		queries[i] = &records[i]
		e.push(event{at: a.AtMS, query: queries[i], instance: -1})
	}

	for len(e.events) > 0 {
		ev := e.events.pop()
		e.now = ev.at
		if ev.instance < 0 {
			e.waiting = append(e.waiting, ev.query)
		} else {
			in := &e.insts[ev.instance]
			in.inFlight = nil
			if e.observer != nil {
				e.observer.Observe(in.typeName, ev.query.Batch, ev.query.FinishMS-ev.query.StartMS)
			}
			if len(in.queue) > 0 {
				next := in.queue[0]
				in.queue = in.queue[1:]
				e.startService(ev.instance, next)
			}
		}
		// Coalesce simultaneous events into one scheduling round.
		if len(e.events) == 0 || e.events[0].at != e.now {
			e.schedule()
		}
	}

	if len(e.waiting) > 0 {
		// Every query must be dispatched by the time arrivals stop and all
		// service completes; a distributor that strands queries is buggy.
		panic(fmt.Sprintf("sim: %s left %d queries stranded", dist.Name(), len(e.waiting)))
	}
	return queries, types
}

func (e *engine) push(ev event) {
	ev.seq = e.seq
	e.seq++
	e.events.push(ev)
}

func (e *engine) startService(idx int, q *Query) {
	in := &e.insts[idx]
	q.StartMS = e.now
	q.FinishMS = e.now + e.service(in.typeName, q.Batch)
	q.Instance = idx
	in.inFlight = q
	e.push(event{at: q.FinishMS, query: q, instance: idx})
}

// schedule runs one distribution round if there is work and capacity.
func (e *engine) schedule() {
	if len(e.waiting) == 0 || len(e.insts) == 0 {
		return
	}
	taken := e.round.Start(len(e.waiting))
	if e.round.Match(e.dist, e.now, e, len(e.insts)) > 0 {
		e.waiting = Compact(e.waiting, taken)
	}
}

// Query implements State.
func (e *engine) Query(q int) (int, float64) {
	return e.waiting[q].Batch, e.now - e.waiting[q].ArrivalMS
}

// Instance implements State from the instance's true finish time.
func (e *engine) Instance(i int, queued []int) (string, float64, []int) {
	in := &e.insts[i]
	remaining := 0.0
	if in.inFlight != nil {
		remaining = max(in.inFlight.FinishMS-e.now, 0)
	}
	for _, q := range in.queue {
		queued = append(queued, q.Batch)
	}
	return in.typeName, remaining, queued
}

// Dispatch implements State: an idle instance starts at once, a busy one
// queues the query behind its backlog.
func (e *engine) Dispatch(q, i int) {
	if in := &e.insts[i]; in.inFlight == nil && len(in.queue) == 0 {
		e.startService(i, e.waiting[q])
	} else {
		in.queue = append(in.queue, e.waiting[q])
	}
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
