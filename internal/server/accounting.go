package server

import (
	"time"

	"kairos/internal/obs"
)

// Accounting: what the controller counts and reports. The per-group
// counters are atomic, so Submit, completions and Stats never wait on a
// scheduling round; nothing here reads a clock or touches the fleet.

// QueryResult reports one served query.
type QueryResult struct {
	// Model is the model the query was submitted for.
	Model string
	// Batch is the query's batch size.
	Batch int
	// LatencyMS is the end-to-end latency in model milliseconds
	// (wall-clock divided by TimeScale).
	LatencyMS float64
	// Instance is the serving instance type.
	Instance string
	// Err is non-nil if the query failed (connection loss, server error).
	Err error
}

// InstanceStats is one connected instance's cumulative accounting.
type InstanceStats struct {
	// Model is the model the instance announced in the handshake.
	Model string `json:"model"`
	// TypeName is the instance type announced in the handshake.
	TypeName string `json:"type_name"`
	// Addr is the dialed server address.
	Addr string `json:"addr"`
	// Dispatched counts queries sent to the instance.
	Dispatched int64 `json:"dispatched"`
	// Completed counts successful replies.
	Completed int64 `json:"completed"`
	// Pending is the current dispatched-but-unfinished depth.
	Pending int `json:"pending"`
	// BusyMS is the accumulated ground-truth service time in model ms.
	BusyMS float64 `json:"busy_ms"`
	// Draining marks an instance being removed (no new dispatches).
	Draining bool `json:"draining"`
}

// ModelStats is one model group's accounting snapshot.
type ModelStats struct {
	// Waiting is the model's central queue depth.
	Waiting int `json:"waiting"`
	// Submitted counts every query accepted for the model.
	Submitted int64 `json:"submitted"`
	// Completed counts queries delivered without error.
	Completed int64 `json:"completed"`
	// Failed counts queries delivered with an error.
	Failed int64 `json:"failed"`
	// Instances snapshots the model's instances in fleet order.
	Instances []InstanceStats `json:"instances"`
}

// IngressStats is one model's external front-end accounting — queries
// that arrived over an ingress endpoint rather than from an in-process
// submitter. An ingress front-end (internal/ingress) merges its counters
// into every Stats snapshot through SetStatsAugmenter, so kairosctl and
// the autopilot admin endpoint see one observability surface for the
// whole serving path.
type IngressStats struct {
	// Submitted counts queries the front-end admitted into the
	// controller; HTTP and TCP split it by transport.
	Submitted int64 `json:"submitted"`
	HTTP      int64 `json:"http"`
	TCP       int64 `json:"tcp"`
	// Rejected counts queries pushed back by the bounded admission queue
	// (HTTP 429 / binary NACK). They never reached the controller.
	Rejected int64 `json:"rejected"`
	// RateLimited counts queries refused by per-client rate limiting,
	// separately from queue rejections. They never reached the controller.
	RateLimited int64 `json:"rate_limited,omitempty"`
	// Completed and Failed count delivered outcomes of admitted queries.
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	// Queue is the current admitted-but-unfinished depth.
	Queue int64 `json:"queue"`
}

// Stats is a point-in-time snapshot of the controller's accounting — the
// shared observability surface read by kairosctl and the autopilot. The
// top-level counters aggregate every model; Models carries the per-model
// sections.
type Stats struct {
	// Waiting is the total central queue depth across models.
	Waiting int `json:"waiting"`
	// Submitted counts every query accepted by Submit.
	Submitted int64 `json:"submitted"`
	// Completed counts queries delivered without error.
	Completed int64 `json:"completed"`
	// Failed counts queries delivered with an error.
	Failed int64 `json:"failed"`
	// Models maps each served model to its group's accounting.
	Models map[string]ModelStats `json:"models"`
	// Instances snapshots every instance in model-then-fleet order.
	Instances []InstanceStats `json:"instances"`
	// Ingress carries per-model front-end accounting when an ingress is
	// attached (see SetStatsAugmenter); nil otherwise.
	Ingress map[string]IngressStats `json:"ingress,omitempty"`
	// IngressUnrouted counts front-door rejections that never resolved to
	// a model section — unknown-model submissions and unauthenticated
	// clients — so /stats accounts for every arrival, not just the routed
	// ones. Set by the ingress augmenter; 0 without one.
	IngressUnrouted int64 `json:"ingress_unrouted,omitempty"`
}

// Stats snapshots the controller's accounting across every model group.
// Counters are read completed-then-failed-then-submitted, so the invariant
// completed + failed <= submitted holds in every snapshot (submitted only
// grows, and every completion was submitted first).
func (c *Controller) Stats() Stats {
	s := Stats{Models: make(map[string]ModelStats, len(c.order))}
	for _, model := range c.order {
		g := c.groups[model]
		ms := ModelStats{
			Completed: g.completed.Load(),
			Failed:    g.failed.Load(),
		}
		ms.Submitted = g.submitted.Load()
		g.mu.Lock()
		ms.Waiting = len(g.waiting)
		ms.Instances = make([]InstanceStats, len(g.instances))
		for i, ri := range g.instances {
			ms.Instances[i] = InstanceStats{
				Model:      ri.model,
				TypeName:   ri.typeName,
				Addr:       ri.addr,
				Dispatched: ri.dispatched,
				Completed:  ri.completed,
				Pending:    len(ri.pending),
				BusyMS:     ri.busyMS,
				Draining:   ri.state == stateDraining,
			}
		}
		g.mu.Unlock()
		s.Models[model] = ms
		s.Waiting += ms.Waiting
		s.Submitted += ms.Submitted
		s.Completed += ms.Completed
		s.Failed += ms.Failed
		s.Instances = append(s.Instances, ms.Instances...)
	}
	if fn := c.augment.Load(); fn != nil {
		(*fn)(&s)
	}
	return s
}

// OutstandingQuery names one admitted-but-undelivered query: which
// model, where it is stuck ("queued" in the central queue or
// "dispatched" to an instance), and how long it has been in flight.
// The ID doubles as the trace ID, so a sampled query's full stage
// breakdown is one /tracez lookup away.
type OutstandingQuery struct {
	Model string `json:"model"`
	ID    int64  `json:"id"`
	Batch int    `json:"batch"`
	// Stage is the last recorded lifecycle stage: "queued" or "dispatched".
	Stage string `json:"stage"`
	// Instance is the dispatch target's type (dispatched queries only).
	Instance string `json:"instance,omitempty"`
	// AgeMS is time since enqueue in model milliseconds.
	AgeMS float64 `json:"age_ms"`
	// Traced marks a sampled query with a ring record to correlate.
	Traced bool `json:"traced"`
}

// outstanding is OutstandingQueries as of now.
func (c *Controller) outstanding(now time.Time) []OutstandingQuery {
	var out []OutstandingQuery
	for _, model := range c.order {
		g := c.groups[model]
		entry := func(q *pendingQuery, stage, instance string) {
			out = append(out, OutstandingQuery{
				Model: model, ID: q.id, Batch: q.batch, Stage: stage, Instance: instance,
				AgeMS:  float64(now.Sub(q.enqueued)) / float64(time.Millisecond) / c.TimeScale,
				Traced: q.traced,
			})
		}
		g.mu.Lock()
		for _, q := range g.waiting {
			entry(q, "queued", "")
		}
		for _, ri := range g.instances {
			for _, q := range ri.pending {
				entry(q, "dispatched", ri.typeName)
			}
		}
		g.mu.Unlock()
	}
	return out
}

// SetStatsAugmenter registers fn, invoked on every Stats snapshot to
// merge front-end accounting (e.g. per-model ingress counters) into the
// controller's view. It must be fast and must not call back into the
// controller. nil unregisters.
func (c *Controller) SetStatsAugmenter(fn func(*Stats)) {
	if fn == nil {
		c.augment.Store(nil)
		return
	}
	c.augment.Store(&fn)
}

// deliver ends one query's life, exactly once (atomic claim, no lock):
// count the outcome, recycle q, then hand the result to its sink and the
// completion callback. now is the instant of the outcome. It runs on
// whichever goroutine decided the outcome — a reply reader, the scheduler,
// Close, or the submitter itself for an on-the-spot rejection — and holds
// no controller lock. The claim outlives the recycling: a second delivery
// of q is refused until enqueue hands q to its next query.
func (c *Controller) deliver(q *pendingQuery, res QueryResult, now time.Time) {
	if !q.completed.CompareAndSwap(false, true) {
		return
	}
	res.Model = q.model
	res.Batch = q.batch
	if g, ok := c.groups[res.Model]; ok {
		if res.Err != nil {
			g.failed.Add(1)
			if q.traced {
				// Failed traced queries still leave a ring record (the
				// success path records in complete with full timings).
				rec := obs.TraceRecord{
					ID: q.id, StartUnixNano: q.enqueued.UnixNano(), Batch: q.batch,
					E2ENS: int64(now.Sub(q.enqueued)), Err: true,
				}
				g.obs.Trace(&rec, -1)
			}
		} else {
			g.completed.Add(1)
		}
	}
	sink := q.sink
	q.sink = nil // an idle pooled query must not pin its last submitter
	queryPool.Put(q)
	sink.QueryDone(res)
	if cb := c.onComplete.Load(); cb != nil {
		(*cb)(res.Model, res.Batch, res)
	}
}
