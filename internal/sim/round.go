package sim

import (
	"math"
	"sort"
)

// Round is the query-distribution round of Sec. 5.1 with no clock of its
// own: it projects a central queue and a fleet into a Distributor's views,
// asks for assignments, and dispatches the valid ones in the policy's
// order. The simulator runs it under virtual time, the live controller
// (internal/server) under the wall clock, and what differs between them is
// an argument: the instant, each instance's remaining time and local queue
// (State.Instance), and queries the caller dispatched itself first (marked
// in Start's mask). Which queries the policy sees is decided here, once
// (see Match). Its scratch is kept across rounds and grows geometrically,
// so a steady-state round allocates nothing and a queue deepening to N
// costs O(log N) allocations.
type Round struct {
	taken  []bool
	qviews []QueryView
	iviews []InstanceView
	queued []int
}

// State is the caller's side of a round: its central queue, indexed by
// position in enqueue order (so waits never rise with position), and its
// fleet, indexed as the InstanceViews are.
type State interface {
	// Query reports waiting query q's batch size and central-queue wait.
	Query(q int) (batch int, waitMS float64)
	// Instance reports instance i's type and the time left on its in-flight
	// query (0 when idle), and appends the batch sizes queued behind it, in
	// service order, to queued.
	Instance(i int, queued []int) (typeName string, remainingMS float64, _ []int)
	// Dispatch commits waiting query q to instance i.
	Dispatch(q, i int)
}

// Start begins a round over the first n waiting queries and returns their
// taken mask, cleared. A caller that dispatches some of them itself before
// the policy runs (the server's session affinity) marks those; the round
// exposes only the rest.
func (r *Round) Start(n int) []bool {
	if cap(r.taken) < n {
		r.taken = make([]bool, n, max(n, 2*cap(r.taken)))
	}
	r.taken = r.taken[:n]
	clear(r.taken)
	return r.taken
}

// Match exposes the round's unmarked queries and ni instances to p at
// nowMS, dispatches p's assignments through s in p's order, and returns
// how many it dispatched. An assignment naming a query outside the round,
// one already taken, or an instance outside [0, ni) is dropped: its query
// stays waiting for a later round. The views are valid until the next
// Match.
//
// A policy without a Horizon sees every unmarked query. One with a horizon
// sees every unmarked query that has waited at most HorizonMS, plus the
// oldest ni+1 of those that waited longer: those are late, penalised on
// every instance, and the queue's order makes them a prefix, found by
// binary search and never walked past its first ni+1.
func (r *Round) Match(p Distributor, nowMS float64, s State, ni int) int {
	taken := r.taken
	fresh := 0
	if h, ok := p.(Horizon); ok {
		horizon := h.HorizonMS()
		fresh = sort.Search(len(taken), func(i int) bool {
			_, wait := s.Query(i)
			return wait <= horizon
		})
	}
	qviews := r.expose(r.qviews[:0], s, 0, fresh, ni+1)
	qviews = r.expose(qviews, s, fresh, len(taken), math.MaxInt)
	r.qviews = qviews
	if len(qviews) == 0 {
		return 0
	}
	// Each instance's QueuedBatches is a capped window of one backing
	// array; a window cut before the array grows keeps the old one.
	queued := r.queued[:0]
	iviews := r.iviews[:0]
	for i := 0; i < ni; i++ {
		start := len(queued)
		var typeName string
		var remaining float64
		typeName, remaining, queued = s.Instance(i, queued)
		var qb []int
		if len(queued) > start {
			qb = queued[start:len(queued):len(queued)]
		}
		iviews = append(iviews, InstanceView{Index: i, TypeName: typeName, RemainingMS: remaining, QueuedBatches: qb})
	}
	r.queued, r.iviews = queued, iviews
	n := 0
	for _, a := range p.Assign(nowMS, qviews, iviews) {
		if a.Query < 0 || a.Query >= len(taken) || a.Instance < 0 || a.Instance >= ni || taken[a.Query] {
			continue
		}
		taken[a.Query] = true
		s.Dispatch(a.Query, a.Instance)
		n++
	}
	return n
}

// expose appends the views of the unmarked queries at positions [from, to)
// to qviews, stopping once qviews holds most.
func (r *Round) expose(qviews []QueryView, s State, from, to, most int) []QueryView {
	for i := from; i < to && len(qviews) < most; i++ {
		if !r.taken[i] {
			batch, wait := s.Query(i)
			qviews = append(qviews, QueryView{Index: i, Batch: batch, WaitMS: wait})
		}
	}
	return qviews
}

// Compact removes the taken queries from waiting in place, keeping arrival
// order, and clears the vacated tail so it pins nothing. Entries past the
// mask were outside the round and stay.
func Compact[T any](waiting []T, taken []bool) []T {
	next := waiting[:0]
	for i, t := range taken {
		if !t {
			next = append(next, waiting[i])
		}
	}
	next = append(next, waiting[len(taken):]...)
	clear(waiting[len(next):])
	return next
}
