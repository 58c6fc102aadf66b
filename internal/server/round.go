package server

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"kairos/internal/models"
	"kairos/internal/obs"
	"kairos/internal/sim"
	"kairos/internal/slab"
)

// The round: what a model group does with its queue at one instant. It is
// a function of the group's state and the `now` it is handed — it reads no
// clock, and reaches an instance only through its link — so the same code
// runs under the scheduler goroutine's wall clock and under a test's fake
// clock and in-memory links.

// link is the round's whole view of an instance's connection: queue a
// request, flush what was queued, close. Replies come back through
// complete, which whoever reads the connection calls. *wireConn is the
// production link.
type link interface {
	queue(Request) error
	flush() error
	close() error
}

type pendingQuery struct {
	id       int64
	model    string
	batch    int
	enqueued time.Time
	// dispatched is stamped with the round's now when the query leaves the
	// central queue (re-stamped on redispatch), and service with the wall
	// service predicted for it then.
	dispatched time.Time
	service    time.Duration
	// traced marks a sampled query: it carries the trace flag on the wire
	// and writes a ring record on completion.
	traced bool
	// session, when nonzero, is the affinity hash: the round prefers the
	// ring-assigned instance while it is under the load bound.
	session uint64
	// deadline, when nonzero, bounds how long the query may sit in the
	// central queue before it is failed with DeadlineExceededMsg.
	deadline time.Time
	// sink receives the result, once, from deliver.
	sink Sink
	// completed flips exactly once per use: the first completion path
	// (reply, sweep, close) wins the delivery. enqueue re-arms it.
	completed atomic.Bool
}

// dispatchItem is one decided dispatch. id, batch and traced are captured
// under the group lock while the query is provably live: once the lock is
// released the query may complete through another path and be recycled.
type dispatchItem struct {
	ri     *remoteInstance
	id     int64
	batch  int
	traced bool
}

// failure is a query decided to fail under the lock and delivered outside
// it; instance names the type it was dispatched to, if any.
type failure struct {
	q        *pendingQuery
	err      error
	instance string
}

// failAll delivers decided failures, unpinning each from the slice.
func (c *Controller) failAll(fails []failure, now time.Time) {
	for i, f := range fails {
		c.deliver(f.q, QueryResult{Err: f.err, Instance: f.instance}, now)
		fails[i] = failure{}
	}
}

// roundState is a group's central queue and the round's reusable scratch,
// guarded by the group's mu except where noted — a steady-state round
// allocates nothing.
type roundState struct {
	waiting []*pendingQuery
	// emptySince is when the round first saw queries waiting on a group
	// with no member: the start of the empty-hold window (SetEmptyHold).
	emptySince time.Time

	// round is the matching core the simulator runs too, and view its
	// State over this group; active is the round's instance order.
	round  sim.Round
	view   roundView
	active []*remoteInstance
	// dispatch and fails are filled under mu and consumed outside it, by
	// the scheduler goroutine only.
	dispatch []dispatchItem
	fails    []failure
	// flushSet holds the links round queued on since the last flush; only
	// the scheduler goroutine touches it.
	flushSet []*remoteInstance
}

// queryPool recycles pendingQuery structs: enqueue takes one per query and
// deliver, the only place a query's life ends, puts it back. A flash crowd
// outruns the recycling, so misses come 64 to a slab.
var queryPool slab.Pool[pendingQuery]

// enqueue admits one query to the named model's central queue at now and
// returns the group whose scheduler owns it from there, or fails it on the
// spot (sink has fired when enqueue returns) and returns nil. A deadline is
// enforced by whichever round first runs at or after it; seeing that one
// does is the caller's job (SubmitTo's alarm).
func (c *Controller) enqueue(model string, batch int, opts SubmitOptions, sink Sink, now time.Time) *modelGroup {
	q := queryPool.Get()
	q.completed.Store(false)
	q.model, q.batch, q.sink = model, batch, sink
	q.traced = false // pooled queries carry the previous query's flag
	// Unconditional: pooled queries carry the previous query's hints.
	q.session, q.deadline = opts.SessionHash, opts.Deadline
	g, ok := c.groups[model]
	if !ok {
		c.deliver(q, QueryResult{
			Err: fmt.Errorf("server: controller does not serve model %q (have %v)", model, c.order)}, now)
		return nil
	}
	g.submitted.Add(1)
	// Reject out-of-range batches here: the scheduler would otherwise feed
	// them to the latency predictor, which panics outside the model's
	// calibrated range — an unvalidated Submit must fail its query, not
	// kill the model's scheduler goroutine.
	if batch < 1 || batch > models.MaxBatch {
		c.deliver(q, QueryResult{Err: fmt.Errorf("server: batch %d outside [1,%d]", batch, models.MaxBatch)}, now)
		return nil
	}
	g.mu.Lock()
	var err error
	if c.isClosed() {
		err = errClosed
	} else if g.nactive == 0 && c.emptyHold.Load() <= 0 {
		// Without capacity the query fails fast — unless an empty-hold
		// window is configured, in which case it parks in the central
		// queue: fault healing is expected to bring capacity back, and
		// the round bounds the wait.
		err = fmt.Errorf("server: model %s has no serving capacity", model)
	}
	if err != nil {
		g.mu.Unlock()
		c.deliver(q, QueryResult{Err: err}, now)
		return nil
	}
	q.id = c.nextID.Add(1)
	q.enqueued = now
	q.traced = g.obs.Sampled(q.id)
	g.waiting = append(g.waiting, q)
	g.mu.Unlock()
	g.wake()
	return g
}

// round runs one scheduling round at now: sweep what can no longer be
// served, match the rest to instances, then — outside the lock — deliver
// the failures and queue the dispatches on their links. Nothing reaches an
// instance until flush, which the caller owes before it stops running
// rounds. A write that fails evicts its instance, which requeues
// everything dispatched to it. It returns the instant the group needs a
// round even if nothing kicks it — the end of an empty-hold window — or
// zero: the scheduler's own timer.
func (c *Controller) round(g *modelGroup, now time.Time) time.Time {
	g.mu.Lock()
	next := c.sweep(g, now)
	dispatch := c.match(g, now)
	g.mu.Unlock()
	c.failAll(g.fails, now)
	g.fails = g.fails[:0]
	// The scratch is cleared as it is consumed: an idle group must not pin
	// delivered (possibly recycled) queries or removed instances.
	for i, d := range dispatch {
		if err := d.ri.link.queue(Request{ID: d.id, Model: g.model, Batch: d.batch, Trace: d.traced}); err != nil {
			c.evict(d.ri, err)
		} else if !d.ri.needsFlush {
			d.ri.needsFlush = true
			g.flushSet = append(g.flushSet, d.ri)
		}
		dispatch[i] = dispatchItem{}
	}
	return next
}

// flush pushes what the rounds since the last flush queued, one write per
// touched link however many rounds touched it. A link that fails — or one
// an earlier queue error already closed — evicts its instance like any
// other fault, requeueing the whole burst.
func (c *Controller) flush(g *modelGroup) {
	for i, ri := range g.flushSet {
		ri.needsFlush = false
		if err := ri.link.flush(); err != nil {
			c.evict(ri, err)
		}
		g.flushSet[i] = nil
	}
	g.flushSet = g.flushSet[:0]
}

// sweep removes from the queue what must fail before any dispatch
// decision: queries whose deadline has been reached (even with zero
// capacity, so a deadline bounds an empty-hold park too), and — when the
// group has no member left — the whole queue once the empty-hold window is
// over, which without a configured hold is at once: with nothing to
// dispatch to the queries would hang forever. It returns when a window it
// left the queue parked in ends, else zero. Callers hold g.mu.
func (c *Controller) sweep(g *modelGroup, now time.Time) time.Time {
	// One read-only scan in the common all-alive case; the compaction pass
	// only runs when something expired.
	nexp := 0
	for _, q := range g.waiting {
		if !q.deadline.IsZero() && !now.Before(q.deadline) {
			nexp++
		}
	}
	if nexp > 0 {
		alive := g.waiting[:0]
		for _, q := range g.waiting {
			if !q.deadline.IsZero() && !now.Before(q.deadline) {
				g.fails = append(g.fails, failure{q: q, err: errDeadlineExceeded})
			} else {
				alive = append(alive, q)
			}
		}
		clear(g.waiting[len(alive):])
		g.waiting = alive
	}
	if len(g.instances) > 0 || len(g.waiting) == 0 {
		g.emptySince = time.Time{}
		return time.Time{}
	}
	if g.emptySince.IsZero() {
		g.emptySince = now
	}
	hold := time.Duration(c.emptyHold.Load())
	if end := g.emptySince.Add(hold); now.Before(end) {
		return end // parked: a control plane has until then to relaunch capacity
	}
	err := fmt.Errorf("server: model %s has no serving capacity", g.model)
	if hold > 0 {
		err = fmt.Errorf("%w (hold window expired)", err)
	}
	for _, q := range g.waiting {
		g.fails = append(g.fails, failure{q: q, err: err})
	}
	clear(g.waiting)
	g.waiting = g.waiting[:0]
	g.emptySince = time.Time{}
	return time.Time{}
}

// take dispatches one query to one instance: the busy-time reservation,
// pending/byID bookkeeping, and flight-recorder stamp every dispatch path
// shares. Callers hold g.mu.
func (c *Controller) take(g *modelGroup, q *pendingQuery, ri *remoteInstance, now time.Time) dispatchItem {
	if ri.busyUntil.Before(now) {
		ri.busyUntil = now
	}
	q.service = c.wall(g.predict(ri.typeName, q.batch))
	ri.busyUntil = ri.busyUntil.Add(q.service)
	ri.backlog += q.service
	ri.pending = append(ri.pending, q)
	ri.byID[q.id] = q
	ri.dispatched++
	// The round's now doubles as the dispatch timestamp — scheduler wait
	// is enqueue → here.
	q.dispatched = now
	g.obs.Record(obs.StageQueue, now.Sub(q.enqueued))
	return dispatchItem{ri: ri, id: q.id, batch: q.batch, traced: q.traced}
}

// strand undoes every take on ri: its dispatched-but-unfinished queries,
// in dispatch order, for the caller to requeue or fail. A query still
// pending has provably not been delivered (every delivery path removes it
// under g.mu first), and the emulated inference is idempotent, so
// re-serving is always safe. Callers hold the group's mu.
func (ri *remoteInstance) strand() []*pendingQuery {
	stranded := ri.pending
	ri.pending, ri.backlog = nil, 0
	clear(ri.byID)
	return stranded
}

// match decides this round's dispatches: session-affine queries go to
// their ring-preferred instances, then the shared round core (sim.Round)
// shows the policy what remains and takes its assignments. Draining
// instances are invisible to both passes, so a removal never receives new
// work. Callers hold g.mu.
func (c *Controller) match(g *modelGroup, now time.Time) []dispatchItem {
	if len(g.waiting) == 0 || g.nactive == 0 {
		return nil
	}
	active := g.active[:0]
	for _, ri := range g.instances {
		if ri.state == stateActive {
			active = append(active, ri)
		}
	}
	g.active = active
	taken := g.round.Start(len(g.waiting))
	g.dispatch = g.dispatch[:0]
	// Affinity pass: session-keyed queries try their ring-preferred
	// instance first, under the bounded-load cap, before the policy sees
	// the queue. The pass updates pending and busy time as it takes, so
	// the policy's instance views include the affinity dispatches. The
	// first such query after a membership change pays for the ring.
	backlog := 0
	for _, ri := range active {
		backlog += len(ri.pending)
	}
	for i, q := range g.waiting {
		if q.session == 0 {
			continue
		}
		if g.ring.stale {
			g.ring.rebuild(g.instances)
		}
		ri := g.ring.pick(q.session, affinityBound(backlog, len(active)))
		if ri == nil {
			continue // saturated ring: the policy routes this one
		}
		taken[i] = true
		backlog++
		g.dispatch = append(g.dispatch, c.take(g, q, ri, now))
	}
	g.view = roundView{c: c, g: g, now: now}
	g.round.Match(g.policy, c.modelMS(time.Duration(now.UnixNano())), &g.view, len(active))
	if len(g.dispatch) > 0 {
		g.waiting = sim.Compact(g.waiting, taken)
	}
	// The active view is rebuilt each round; don't let it pin removed
	// instances while the group idles.
	clear(active)
	g.active = active[:0]
	return g.dispatch
}

// modelMS converts a wall-clock span to the policy's unit, the model's
// milliseconds; a negative span reads 0.
func (c *Controller) modelMS(d time.Duration) float64 {
	if d < 0 {
		return 0
	}
	return float64(d) / float64(time.Millisecond) / c.TimeScale
}

// wall is modelMS's inverse: the model's milliseconds as a wall span.
func (c *Controller) wall(ms float64) time.Duration {
	return time.Duration(ms * c.TimeScale * float64(time.Millisecond))
}

// roundView is the round core's sim.State over a group at one instant:
// the central queue, the active members, and their busy time, restarted
// at each reply and extended at each dispatch. Callers hold g.mu.
type roundView struct {
	c   *Controller
	g   *modelGroup
	now time.Time
}

func (v *roundView) Query(q int) (int, float64) {
	p := v.g.waiting[q]
	return p.batch, v.c.modelMS(v.now.Sub(p.enqueued))
}

func (v *roundView) Instance(i int, queued []int) (string, float64, []int) {
	ri := v.g.active[i]
	if len(ri.pending) == 0 {
		return ri.typeName, 0, queued
	}
	// The head of pending is in flight; the rest are queued behind it.
	start := len(queued)
	for _, q := range ri.pending[1:] {
		queued = append(queued, q.batch)
	}
	// busyUntil covers the whole backlog; attribute the queued service to
	// the queued batches and keep the remainder for the head.
	remaining := v.c.modelMS(ri.busyUntil.Sub(v.now))
	for _, b := range queued[start:] {
		remaining -= v.g.predict(ri.typeName, b)
	}
	return ri.typeName, max(remaining, 0), queued
}

func (v *roundView) Dispatch(q, i int) {
	v.g.dispatch = append(v.g.dispatch, v.c.take(v.g, v.g.waiting[q], v.g.active[i], v.now))
}

// complete is the one entry for an instance's replies, called by whoever
// reads its connection with the instant the reply arrived: correlate
// (O(1) through byID), account, record, deliver, and kick the scheduler —
// the instance has room again. A reply nobody waits for (its query was
// stranded by an eviction or failed by Close) is dropped.
func (c *Controller) complete(ri *remoteInstance, reply Reply, now time.Time) {
	g := c.groups[ri.model]
	g.mu.Lock()
	q := ri.byID[reply.ID]
	if q != nil {
		delete(ri.byID, reply.ID)
		// Instances serve in dispatch order, so the reply is almost
		// always for the head of pending.
		if k := slices.Index(ri.pending, q); k >= 0 {
			ri.pending = slices.Delete(ri.pending, k, k+1)
			ri.backlog -= q.service
		}
		// The instance starts its next query as it answers this one, so
		// the busy clock restarts here, and how far it had fallen behind
		// the reply is the head slot's clock lag (0 when early).
		next := now.Add(ri.backlog)
		g.obs.BusyLag.Record(next.Sub(ri.busyUntil))
		ri.busyUntil = next
		if len(ri.pending) == 0 {
			ri.settled()
		}
	}
	if q != nil && reply.Err == "" {
		ri.completed++
		ri.busyMS += reply.ServiceMS
		// Ground-truth service feedback, exactly as the simulator
		// delivers it: online learners train from real completions
		// too. Under g.mu so Observe never races Assign (policies are
		// not internally synchronized).
		if g.observer != nil {
			g.observer.Observe(ri.typeName, q.batch, reply.ServiceMS)
		}
	}
	g.mu.Unlock()
	if q == nil {
		return
	}
	e2e := now.Sub(q.enqueued)
	res := QueryResult{
		LatencyMS: c.modelMS(e2e),
		Instance:  ri.typeName,
	}
	if reply.Err != "" {
		res.Err = errors.New(reply.Err)
	} else {
		// Flight-recorder stamps, reusing the arrival instant: a few
		// atomic adds per completion, a ring write for the sampled.
		// Failure timings are excluded so stage histograms reflect
		// serving latency, not eviction timing; failed traced queries
		// get their ring record in deliver.
		flight := now.Sub(q.dispatched)
		serve := c.wall(reply.ServiceMS)
		g.obs.Record(obs.StageFlight, flight)
		g.obs.Record(obs.StageServe, serve)
		g.obs.Record(obs.StageE2E, e2e)
		ri.serveHist.Record(serve)
		if q.traced {
			if reply.Traced {
				g.obs.Record(obs.StageWait, time.Duration(reply.WaitNS))
			}
			rec := obs.TraceRecord{
				ID: q.id, StartUnixNano: q.enqueued.UnixNano(), Batch: q.batch,
				QueueNS:  int64(q.dispatched.Sub(q.enqueued)),
				FlightNS: int64(flight), WaitNS: reply.WaitNS,
				ServeNS: int64(serve), E2ENS: int64(e2e),
			}
			g.obs.Trace(&rec, ri.typeID)
		}
	}
	c.deliver(q, res, now)
	g.wake()
}
