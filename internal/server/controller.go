package server

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kairos/internal/models"
	"kairos/internal/obs"
	"kairos/internal/sim"
)

// Controller is the central controller of Sec. 6, generalized to a
// multi-model fleet: it accepts queries tagged with their model, keeps one
// central queue per model, runs each model's query-distribution policy
// (normally Kairos's matching) in real time over that model's instances,
// and sends dispatched queries to the instance servers over the wire.
// Instances join the scheduler group of the model their handshake banner
// announces; a banner naming a model the controller does not serve is
// rejected. The fleet is reconfigurable at runtime: AddInstance dials new
// servers into the rotation and RemoveInstance drains and disconnects
// running ones, so a control plane (see internal/autopilot) can reconcile
// every model's fleet toward a fresh plan without dropping in-flight
// queries.
//
// The controller is sharded per model: each group has its own lock, its
// own scheduler goroutine, and its own kick channel, so one model's
// matching round (the policy's Assign can be cubic in the queue depth)
// never stalls another model's Submit, completions, or Stats, and a busy
// model cannot starve an idle one. Counters are atomic, so accounting
// never waits on a scheduling round.
type Controller struct {
	// TimeScale must match the instance servers' scale.
	TimeScale float64

	// groups and order are immutable after construction.
	groups map[string]*modelGroup
	order  []string // sorted model names: deterministic iteration

	// obs is the flight recorder: per-model stage histograms, sampled
	// trace rings, and the sampling policy. Always on — the stamps reuse
	// timestamps the serving path already takes, so recording costs a few
	// atomic adds per query and nothing allocates.
	obs *obs.Registry

	nextID    atomic.Int64
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// emptyHold is how long (ns) a group that lost all capacity parks its
	// queries waiting for capacity to return; 0 fails them immediately.
	emptyHold atomic.Int64

	// onComplete, when set, observes every delivered QueryResult.
	onComplete atomic.Pointer[completionFunc]
	// onDown, when set, observes every instance eviction (death outside an
	// orderly RemoveInstance).
	onDown atomic.Pointer[instanceDownFunc]
	// augment, when set, merges front-end accounting into Stats snapshots.
	augment atomic.Pointer[func(*Stats)]
}

type completionFunc = func(model string, batch int, res QueryResult)

type instanceDownFunc = func(model, typeName, addr string, cause error)

// GroupSpec describes one served model's scheduling group: the
// query-distribution policy deciding dispatches (it sees times in model
// milliseconds) and the latency predictor used for busy-time tracking.
type GroupSpec struct {
	Policy  sim.Distributor
	Predict func(typeName string, batch int) float64
}

// modelGroup is one model's serving shard: its policy, its slice of the
// fleet, its central queue, and its scheduler goroutine's kick channel.
// The mutable fleet state is guarded by the group's own mu; the counters
// are atomic so Submit accounting, completions, and Stats never contend
// with a scheduling round. The scratch slices are reused across rounds by
// the group's scheduler goroutine (under mu), taking a round to near-zero
// allocations.
type modelGroup struct {
	model    string
	policy   sim.Distributor
	observer sim.Observer // policy's Observe, nil if not implemented
	predict  func(typeName string, batch int) float64
	kick     chan struct{}
	obs      *obs.ModelObs // the model's flight-recorder shard

	submitted atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64

	mu        sync.Mutex
	instances []*remoteInstance
	waiting   []*pendingQuery
	// ring is the session-affinity hash ring over the non-draining
	// instances; rebuilt on every membership or draining change.
	ring affinityRing
	// holdTimer bounds an empty-hold window: it is armed when the group
	// loses its last instance while queries wait (see SetEmptyHold) and
	// stopped when capacity returns.
	holdTimer *time.Timer

	// Round scratch, reused by the scheduler goroutine under mu.
	qviews    []sim.QueryView
	iviews    []sim.InstanceView
	active    []*remoteInstance
	queuedBuf []int
	taken     []bool
	dispatch  []dispatchItem
	flushSet  []*remoteInstance
	// expired collects deadline-exceeded queries swept out of the queue
	// by a round; they are failed outside the lock by groupRound.
	expired []*pendingQuery
}

// rebuildRingLocked re-derives the session-affinity ring from the
// group's non-draining instances; call after any membership or draining
// change. Callers hold g.mu.
func (g *modelGroup) rebuildRingLocked() { g.ring.rebuild(g.instances) }

// wake nudges the group's scheduler without blocking.
func (g *modelGroup) wake() {
	select {
	case g.kick <- struct{}{}:
	default:
	}
}

// remoteInstance is one dialed instance server. Mutable fields are
// guarded by the owning group's mu; the wire connection has its own write
// lock, so network writes happen outside the group lock.
type remoteInstance struct {
	model     string
	typeName  string
	addr      string
	wc        *wireConn
	busyUntil time.Time
	// pending holds dispatched-but-unfinished queries in dispatch order;
	// byID indexes them for O(1) reply correlation.
	pending []*pendingQuery
	byID    map[int64]*pendingQuery
	// draining excludes the instance from new dispatches; once pending
	// empties, RemoveInstance closes the connection and drops it.
	draining   bool
	dispatched int64
	completed  int64
	// busyMS accumulates ground-truth service time (model ms) from replies.
	busyMS float64
	// needsFlush marks the instance as touched by the current dispatch
	// burst; only the group's scheduler goroutine uses it.
	needsFlush bool
	// serveHist and typeID are the flight recorder's per-instance-type
	// hooks, resolved once at dial time so the reply path records with a
	// cached pointer and stores an interned int.
	serveHist *obs.Histogram
	typeID    int
}

type pendingQuery struct {
	id       int64
	model    string
	batch    int
	enqueued time.Time
	// dispatched is stamped with the scheduling round's clock read when
	// the query leaves the central queue (re-stamped on redispatch).
	dispatched time.Time
	// traced marks a sampled query: it carries the trace flag on the wire
	// and writes a ring record on completion.
	traced bool
	// session, when nonzero, is the affinity hash: the dispatch loop
	// prefers the ring-assigned instance while it is under the load bound.
	session uint64
	// deadline, when nonzero, bounds how long the query may sit in the
	// central queue before it is failed with DeadlineExceededMsg.
	deadline time.Time
	done     chan QueryResult
	// completed flips exactly once: the first completion path (reply,
	// eviction, close, failed write) wins the delivery.
	completed atomic.Bool
}

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

// NewController dials the instance servers and starts the scheduling loop
// for a single-model deployment — the one-group case of NewMultiController.
func NewController(model string, policy sim.Distributor, timeScale float64, predict func(string, int) float64, addrs []string) (*Controller, error) {
	return NewMultiController(map[string]GroupSpec{model: {Policy: policy, Predict: predict}}, timeScale, addrs)
}

// NewMultiController dials the instance servers, assigns each to the
// scheduler group of the model its banner announces, and starts one
// scheduler goroutine per group. Every announced model must have a group;
// an instance announcing an unexpected model is rejected (wrong-model
// instances must never silently serve another model's queries).
func NewMultiController(groups map[string]GroupSpec, timeScale float64, addrs []string) (*Controller, error) {
	if len(groups) == 0 {
		return nil, errors.New("server: controller needs at least one model group")
	}
	if timeScale <= 0 {
		timeScale = 1
	}
	if len(addrs) == 0 {
		return nil, errors.New("server: controller needs at least one instance address")
	}
	c := &Controller{
		TimeScale: timeScale,
		groups:    make(map[string]*modelGroup, len(groups)),
		closed:    make(chan struct{}),
	}
	for model, spec := range groups {
		if model == "" {
			return nil, errors.New("server: model group with an empty model name")
		}
		if spec.Policy == nil || spec.Predict == nil {
			return nil, fmt.Errorf("server: model group %s needs a policy and a predictor", model)
		}
		g := &modelGroup{model: model, policy: spec.Policy, predict: spec.Predict, kick: make(chan struct{}, 1)}
		g.observer, _ = spec.Policy.(sim.Observer)
		c.groups[model] = g
		c.order = append(c.order, model)
	}
	sort.Strings(c.order)
	c.obs = obs.NewRegistry(0, c.order...)
	for _, model := range c.order {
		c.groups[model].obs = c.obs.Model(model)
	}
	for _, addr := range addrs {
		ri, err := c.dialInstance(addr)
		if err != nil {
			c.Close()
			return nil, err
		}
		g := c.groups[ri.model]
		g.mu.Lock()
		g.instances = append(g.instances, ri)
		g.rebuildRingLocked()
		g.mu.Unlock()
		c.wg.Add(1)
		go c.readLoop(ri)
	}
	for _, model := range c.order {
		c.wg.Add(1)
		go c.groupLoop(c.groups[model])
	}
	return c, nil
}

// dialInstance connects and handshakes with one instance server,
// validating the announced model against the served set and the announced
// wire version against this build's.
func (c *Controller) dialInstance(addr string) (*remoteInstance, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: dialing %s: %w", addr, err)
	}
	wc := newWireConn(conn)
	var hello Hello
	if err := ReadFrame(wc.br, &hello); err != nil {
		conn.Close()
		return nil, fmt.Errorf("server: handshake with %s: %w", addr, err)
	}
	if _, ok := c.groups[hello.Model]; !ok {
		conn.Close()
		return nil, fmt.Errorf("server: instance %s at %s announces model %q, controller serves %v",
			hello.TypeName, addr, hello.Model, c.order)
	}
	if hello.Proto != ProtoSession {
		conn.Close()
		return nil, fmt.Errorf("server: instance %s at %s speaks wire version %d, this controller speaks %d",
			hello.TypeName, addr, hello.Proto, ProtoSession)
	}
	if err := wc.writeJSON(HelloAck{Proto: ProtoSession}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("server: handshake with %s: %w", addr, err)
	}
	mo := c.obs.Model(hello.Model)
	return &remoteInstance{
		model:     hello.Model,
		typeName:  hello.TypeName,
		addr:      addr,
		wc:        wc,
		busyUntil: time.Now(),
		byID:      make(map[int64]*pendingQuery),
		serveHist: mo.ServeHist(hello.TypeName),
		typeID:    c.obs.Intern(hello.TypeName),
	}, nil
}

// Obs exposes the controller's flight recorder: per-model stage
// histograms, per-instance-type serve histograms, and the sampled
// trace rings (see internal/obs).
func (c *Controller) Obs() *obs.Registry { return c.obs }

// SetTraceSampling retunes trace sampling at runtime: trace ~1/every
// queries (0 disables, 1 traces everything), deterministically keyed by
// seed — the same seed always traces the same query IDs.
func (c *Controller) SetTraceSampling(every, seed uint64) { c.obs.SetSampling(every, seed) }

// Models lists the served model names in sorted order.
func (c *Controller) Models() []string {
	out := make([]string, len(c.order))
	copy(out, c.order)
	return out
}

// AddInstance dials one more instance server into the rotation of the
// model its banner announces and returns that type name. Safe to call
// while traffic is flowing.
func (c *Controller) AddInstance(addr string) (string, error) {
	ri, err := c.dialInstance(addr)
	if err != nil {
		return "", err
	}
	g := c.groups[ri.model]
	g.mu.Lock()
	select {
	case <-c.closed:
		g.mu.Unlock()
		ri.wc.close()
		return "", errors.New("server: controller closed")
	default:
	}
	g.instances = append(g.instances, ri)
	g.rebuildRingLocked()
	if g.holdTimer != nil {
		// Capacity is back; held queries are dispatchable again.
		g.holdTimer.Stop()
		g.holdTimer = nil
	}
	c.wg.Add(1)
	g.mu.Unlock()
	go c.readLoop(ri)
	g.wake()
	return ri.typeName, nil
}

// RemoveInstance drains and disconnects one instance of the given type
// from the model's group: the instance stops receiving new dispatches
// immediately, every already-dispatched query completes and is delivered
// normally, and only then is the connection closed and the instance
// dropped from the fleet. Among removable candidates it picks the one with
// the shallowest backlog. It blocks until the drain finishes and returns
// the removed instance's dialed address so launchers can stop the matching
// server.
func (c *Controller) RemoveInstance(model, typeName string) (string, error) {
	g, ok := c.groups[model]
	if !ok {
		return "", fmt.Errorf("server: controller does not serve model %q (have %v)", model, c.order)
	}
	g.mu.Lock()
	var target *remoteInstance
	for _, ri := range g.instances {
		if ri.typeName != typeName || ri.draining {
			continue
		}
		if target == nil || len(ri.pending) < len(target.pending) {
			target = ri
		}
	}
	if target == nil {
		g.mu.Unlock()
		return "", fmt.Errorf("server: no removable instance of type %s serving %s", typeName, model)
	}
	target.draining = true
	g.rebuildRingLocked()
	g.mu.Unlock()
	g.wake() // re-dispatch anything the policy was routing here

	// Drain: dispatched queries finish through the normal reply path.
	for {
		g.mu.Lock()
		depth := len(target.pending)
		g.mu.Unlock()
		if depth == 0 {
			break
		}
		select {
		case <-c.closed:
			return "", errors.New("server: controller closed during drain")
		case <-time.After(2 * time.Millisecond):
		}
	}
	// Drop it from the fleet before closing the connection: the readLoop's
	// eviction path must see an already-removed instance, or this orderly
	// removal would race it into reporting a fault.
	g.mu.Lock()
	dropLocked(g, target)
	orphans := c.capacityLostLocked(g)
	g.mu.Unlock()
	target.wc.close()
	for _, q := range orphans {
		c.deliver(q, QueryResult{Err: fmt.Errorf("server: model %s has no serving capacity", model)})
	}
	return target.addr, nil
}

// RemoveInstanceAddr is RemoveInstance keyed by instance address — the
// drain-ahead-of-death path a preemption notice takes, where the doomed
// instance is known exactly rather than picked by type. It drains and
// disconnects the instance at addr, blocking until its backlog is
// delivered, and reports the instance's model and type so the caller can
// replan around the hole. died reports that the instance died mid-drain
// (e.g. a preemption deadline or another fault closed its connection
// first): the eviction path already redispatched its undelivered queries,
// reported the fault, and closed the connection, so the caller should
// fall back to fault healing instead of an orderly stop.
func (c *Controller) RemoveInstanceAddr(addr string) (model, typeName string, died bool, err error) {
	var g *modelGroup
	var target *remoteInstance
	for _, name := range c.order {
		grp := c.groups[name]
		grp.mu.Lock()
		for _, ri := range grp.instances {
			if ri.addr == addr && !ri.draining {
				g, target = grp, ri
				target.draining = true
				grp.rebuildRingLocked()
				break
			}
		}
		grp.mu.Unlock()
		if target != nil {
			break
		}
	}
	if target == nil {
		return "", "", false, fmt.Errorf("server: no removable instance at %s", addr)
	}
	g.wake() // re-dispatch anything the policy was routing here

	// Drain: dispatched queries finish through the normal reply path. An
	// eviction empties the backlog too (by stranding it for redispatch),
	// so a mid-drain death also ends this loop.
	for {
		g.mu.Lock()
		depth := len(target.pending)
		g.mu.Unlock()
		if depth == 0 {
			break
		}
		select {
		case <-c.closed:
			return "", "", false, errors.New("server: controller closed during drain")
		case <-time.After(2 * time.Millisecond):
		}
	}
	// Drop before closing, exactly like RemoveInstance — unless the
	// eviction path got here first: dropLocked reporting a non-member is
	// how the lost race surfaces, and eviction has then already handled
	// orphans and closed the connection.
	g.mu.Lock()
	member := dropLocked(g, target)
	var orphans []*pendingQuery
	if member {
		orphans = c.capacityLostLocked(g)
	}
	g.mu.Unlock()
	if member {
		target.wc.close()
	}
	for _, q := range orphans {
		c.deliver(q, QueryResult{Err: fmt.Errorf("server: model %s has no serving capacity", target.model)})
	}
	return target.model, target.typeName, !member, nil
}

// dropLocked removes the instance from its group, reporting whether it
// was still a fleet member; callers hold g.mu.
func dropLocked(g *modelGroup, target *remoteInstance) bool {
	for i, ri := range g.instances {
		if ri == target {
			g.instances = append(g.instances[:i], g.instances[i+1:]...)
			return true
		}
	}
	return false
}

// capacityLostLocked handles a group that may have just lost its last
// instance. Without an empty-hold window the waiting queries are returned
// for orphan failure (with nothing left to dispatch to they would hang
// forever). With one (SetEmptyHold), they stay parked so a control plane
// has a bounded window to relaunch capacity after a fault; the hold timer
// fails them if none arrives. The returned queries must be failed with
// deliver outside the lock. Callers hold g.mu.
func (c *Controller) capacityLostLocked(g *modelGroup) []*pendingQuery {
	if len(g.instances) > 0 || len(g.waiting) == 0 {
		return nil
	}
	if c.emptyHold.Load() > 0 {
		c.armHoldLocked(g)
		return nil
	}
	orphans := g.waiting
	g.waiting = nil
	return orphans
}

// armHoldLocked starts the group's empty-hold timer if the hold window is
// configured and no timer is already running. Callers hold g.mu.
func (c *Controller) armHoldLocked(g *modelGroup) {
	hold := time.Duration(c.emptyHold.Load())
	if hold <= 0 || g.holdTimer != nil {
		return
	}
	g.holdTimer = time.AfterFunc(hold, func() { c.holdExpired(g) })
}

// holdExpired fires when an empty-hold window elapses: if the group still
// has no instances, the parked queries are failed — the hold bounds how
// long an admitted query can wait for capacity to return, it is not a
// license to hang forever.
func (c *Controller) holdExpired(g *modelGroup) {
	g.mu.Lock()
	g.holdTimer = nil
	if len(g.instances) > 0 {
		// Capacity came back between the timer firing and the lock; the
		// scheduler owns the queue again.
		g.mu.Unlock()
		return
	}
	orphans := g.waiting
	g.waiting = nil
	g.mu.Unlock()
	for _, q := range orphans {
		c.deliver(q, QueryResult{Err: fmt.Errorf("server: model %s has no serving capacity (hold window expired)", g.model)})
	}
}

// SetEmptyHold configures how long a model group that has lost every
// instance parks its waiting and newly submitted queries before failing
// them. The default (0) keeps the historical fail-fast behavior. A control
// plane that relaunches dead instances (internal/autopilot fault healing)
// sets this to its expected recovery time so the window between an
// instance crash and its replacement does not drop admitted queries.
func (c *Controller) SetEmptyHold(d time.Duration) { c.emptyHold.Store(int64(d)) }

// InstanceTypes lists the connected instance types in model-then-fleet
// order, including draining ones.
func (c *Controller) InstanceTypes() []string {
	var out []string
	for _, model := range c.order {
		g := c.groups[model]
		g.mu.Lock()
		for _, ri := range g.instances {
			out = append(out, ri.typeName)
		}
		g.mu.Unlock()
	}
	return out
}

// InstanceCounts returns the number of non-draining instances per type
// across every model — the aggregate fleet the schedulers can use.
func (c *Controller) InstanceCounts() map[string]int {
	out := make(map[string]int)
	for _, model := range c.order {
		g := c.groups[model]
		g.mu.Lock()
		for _, ri := range g.instances {
			if !ri.draining {
				out[ri.typeName]++
			}
		}
		g.mu.Unlock()
	}
	return out
}

// ModelInstanceCounts returns the number of non-draining instances per
// type serving one model — the fleet that model's scheduler can use.
func (c *Controller) ModelInstanceCounts(model string) map[string]int {
	out := make(map[string]int)
	g, ok := c.groups[model]
	if !ok {
		return out
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, ri := range g.instances {
		if !ri.draining {
			out[ri.typeName]++
		}
	}
	return out
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
				Draining:   ri.draining,
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

// OutstandingQueries snapshots every query the controller has accepted
// but not yet delivered, in model order. A drained fleet returns an
// empty slice; the soak checker uses this to name the exact stuck
// queries behind a zero-drop violation.
func (c *Controller) OutstandingQueries() []OutstandingQuery {
	now := time.Now()
	ageMS := func(enq time.Time) float64 {
		return float64(now.Sub(enq)) / float64(time.Millisecond) / c.TimeScale
	}
	var out []OutstandingQuery
	for _, model := range c.order {
		g := c.groups[model]
		g.mu.Lock()
		for _, q := range g.waiting {
			out = append(out, OutstandingQuery{
				Model: model, ID: q.id, Batch: q.batch, Stage: "queued",
				AgeMS: ageMS(q.enqueued), Traced: q.traced,
			})
		}
		for _, ri := range g.instances {
			for _, q := range ri.pending {
				out = append(out, OutstandingQuery{
					Model: model, ID: q.id, Batch: q.batch, Stage: "dispatched",
					Instance: ri.typeName, AgeMS: ageMS(q.enqueued), Traced: q.traced,
				})
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

// SetOnInstanceDown installs a callback observing every instance eviction
// — a connection lost outside an orderly RemoveInstance, i.e. a crash,
// wedge-then-reset, or network cut. It runs outside the controller locks,
// after the dead instance's queries have been requeued, and must not block
// for long. A control plane uses it to reap the dead process and trigger
// an immediate replan instead of waiting for the next drift tick.
func (c *Controller) SetOnInstanceDown(fn func(model, typeName, addr string, cause error)) {
	if fn == nil {
		c.onDown.Store(nil)
		return
	}
	c.onDown.Store(&fn)
}

// SetOnComplete installs a callback observing every delivered QueryResult
// (successes and failures; check res.Err). It runs outside the controller
// locks and must not block for long — it is on the completion path.
func (c *Controller) SetOnComplete(fn func(model string, batch int, res QueryResult)) {
	if fn == nil {
		c.onComplete.Store(nil)
		return
	}
	c.onComplete.Store(&fn)
}

// queryPool recycles pendingQuery structs (and their result channels) for
// the synchronous SubmitWait path, where the caller provably consumed the
// result before the query is pooled again. Asynchronous Submit hands its
// channel to the caller and cannot recycle.
var queryPool = sync.Pool{New: func() any {
	return &pendingQuery{done: make(chan QueryResult, 1)}
}}

// Submit enqueues one query for the named model and returns a channel
// delivering its result. Unknown models, models whose group currently has
// no serving capacity (every instance removed or draining — reachable
// when the shared-budget planner starves a model), and submissions after
// Close all fail immediately instead of hanging — except that a
// configured empty-hold window (SetEmptyHold) parks capacity-less
// submissions for bounded fault recovery instead. Every accepted or
// rejected submission is accounted, so completed + failed never exceeds
// submitted on any path.
func (c *Controller) Submit(model string, batch int) <-chan QueryResult {
	q := &pendingQuery{done: make(chan QueryResult, 1)}
	c.submit(model, batch, q, SubmitOptions{})
	return q.done
}

// SubmitOptions carry a query's optional routing hints: a session
// affinity hash (see SessionHash) and a dispatch deadline. The zero
// value means "no hints" on both.
type SubmitOptions struct {
	// SessionHash, when nonzero, asks the dispatch loop to prefer the
	// session's ring-assigned instance while it is under the bounded-load
	// cap. A hint, never a constraint: an overloaded or vanished
	// preferred instance falls back to the model's policy.
	SessionHash uint64
	// Deadline, when nonzero, bounds how long the query may wait in the
	// central queue; an expired query fails with DeadlineExceededMsg
	// instead of dispatching. Queries already dispatched are served.
	Deadline time.Time
}

// DeadlineExceededMsg is the exact error text a deadline expiry
// delivers, so front-ends and clients can classify it.
const DeadlineExceededMsg = "server: deadline exceeded"

var errDeadlineExceeded = errors.New(DeadlineExceededMsg)

// SubmitWait submits and blocks for the result. Unlike Submit it recycles
// the query bookkeeping, so a closed-loop submitter allocates nothing per
// query in steady state.
func (c *Controller) SubmitWait(model string, batch int) QueryResult {
	return c.SubmitWaitOpts(model, batch, SubmitOptions{})
}

// SubmitWaitOpts is SubmitWait with routing hints: the ingress front
// door's submit path for session-affine, deadline-bounded queries.
func (c *Controller) SubmitWaitOpts(model string, batch int, opts SubmitOptions) QueryResult {
	q := queryPool.Get().(*pendingQuery)
	c.submit(model, batch, q, opts)
	res := <-q.done
	// Every delivery path sends exactly once (the atomic claim in deliver)
	// and touches q only before the send, so after the receive the query
	// is provably idle and safe to recycle.
	q.completed.Store(false)
	queryPool.Put(q)
	return res
}

// submit enqueues q — freshly allocated or pooled — for the named model.
func (c *Controller) submit(model string, batch int, q *pendingQuery, opts SubmitOptions) {
	q.model, q.batch = model, batch
	q.traced = false // pooled queries carry the previous query's flag
	// Unconditional: pooled queries carry the previous query's hints.
	q.session, q.deadline = opts.SessionHash, opts.Deadline
	g, ok := c.groups[model]
	if !ok {
		c.deliver(q, QueryResult{
			Err: fmt.Errorf("server: controller does not serve model %q (have %v)", model, c.order)})
		return
	}
	// Reject out-of-range batches here: the scheduler would otherwise feed
	// them to the latency predictor, which panics outside the model's
	// calibrated range — an unvalidated Submit must fail its query, not
	// kill the model's scheduler goroutine.
	if batch < 1 || batch > models.MaxBatch {
		g.submitted.Add(1)
		c.deliver(q, QueryResult{Err: fmt.Errorf("server: batch %d outside [1,%d]", batch, models.MaxBatch)})
		return
	}
	g.mu.Lock()
	select {
	case <-c.closed:
		g.submitted.Add(1)
		g.mu.Unlock()
		c.deliver(q, QueryResult{Err: errors.New("server: controller closed")})
		return
	default:
	}
	capacity := false
	for _, ri := range g.instances {
		if !ri.draining {
			capacity = true
			break
		}
	}
	if !capacity {
		if c.emptyHold.Load() > 0 {
			// Hold instead of fail-fast: park the query in the central
			// queue and bound the wait with the hold timer — fault healing
			// is expected to bring capacity back within the window.
			if len(g.instances) == 0 {
				c.armHoldLocked(g)
			}
		} else {
			g.submitted.Add(1)
			g.mu.Unlock()
			c.deliver(q, QueryResult{Err: fmt.Errorf("server: model %s has no serving capacity", model)})
			return
		}
	}
	q.id = c.nextID.Add(1)
	q.enqueued = time.Now()
	q.traced = g.obs.Sampled(q.id)
	g.submitted.Add(1)
	g.waiting = append(g.waiting, q)
	g.mu.Unlock()
	if !q.deadline.IsZero() {
		// The scheduler loop only wakes on kicks; a query that can't
		// dispatch would outsleep its deadline without this one-shot
		// alarm. Firing after the query completed is a harmless spurious
		// round, so the timer is never cancelled.
		if d := time.Until(q.deadline); d > 0 {
			time.AfterFunc(d+time.Millisecond, g.wake)
		}
	}
	g.wake()
}

// deliver completes one query exactly once (atomic claim, no lock) and
// invokes the completion callback. q is not touched after the result is
// sent: the receiver may recycle it immediately (see SubmitWait).
func (c *Controller) deliver(q *pendingQuery, res QueryResult) {
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
				// success path records in readLoop with full timings).
				rec := obs.TraceRecord{
					ID: q.id, StartUnixNano: q.enqueued.UnixNano(), Batch: q.batch,
					E2ENS: int64(time.Since(q.enqueued)), Err: true,
				}
				g.obs.Trace(&rec, -1)
			}
		} else {
			g.completed.Add(1)
		}
	}
	q.done <- res
	if cb := c.onComplete.Load(); cb != nil {
		(*cb)(res.Model, res.Batch, res)
	}
}

// Close shuts down the controller and fails outstanding queries, both the
// centrally-waiting and the dispatched-but-unfinished ones. Like every
// other completion path, the failures reach the onComplete observer.
func (c *Controller) Close() {
	c.closeOnce.Do(func() {
		close(c.closed)
		errClosed := errors.New("server: controller closed")
		for _, model := range c.order {
			g := c.groups[model]
			g.mu.Lock()
			if g.holdTimer != nil {
				g.holdTimer.Stop()
				g.holdTimer = nil
			}
			var inflight []dispatchItem
			for _, ri := range g.instances {
				ri.wc.close()
				for _, q := range ri.pending {
					inflight = append(inflight, dispatchItem{q: q, ri: ri})
				}
				ri.pending = nil
				clear(ri.byID)
			}
			waiting := g.waiting
			g.waiting = nil
			g.mu.Unlock()
			for _, d := range inflight {
				c.deliver(d.q, QueryResult{Err: errClosed, Instance: d.ri.typeName})
			}
			for _, q := range waiting {
				c.deliver(q, QueryResult{Err: errClosed})
			}
		}
	})
	c.wg.Wait()
}

// evict removes a dead instance from its group and requeues its in-flight
// queries at the head of the central queue for redispatch to surviving
// capacity. A query still in ri.pending has provably not been delivered
// (every delivery path removes it from pending under g.mu first), and the
// emulated inference is idempotent, so re-serving is always safe — an
// instance crash must not drop admitted queries. Draining is set first so
// no scheduling round re-dispatches to the corpse. If the group just lost
// its last instance the queue is either held (SetEmptyHold) or orphaned.
// The instance-down callback (SetOnInstanceDown) fires last, outside the
// locks, so a control plane can reap the process and heal the fleet.
func (c *Controller) evict(ri *remoteInstance, cause error) {
	g := c.groups[ri.model]
	g.mu.Lock()
	ri.draining = true
	stranded := ri.pending
	ri.pending = nil
	clear(ri.byID)
	// An instance already dropped by RemoveInstance died of its own close;
	// that is an orderly removal, not a fault worth reporting.
	wasMember := dropLocked(g, ri)
	g.rebuildRingLocked()
	if len(stranded) > 0 {
		// Head of the queue, original enqueue times intact: redispatched
		// queries keep their accumulated wait for latency accounting and
		// scheduling priority.
		g.waiting = append(stranded, g.waiting...)
	}
	orphans := c.capacityLostLocked(g)
	g.mu.Unlock()
	ri.wc.close()
	for _, q := range orphans {
		c.deliver(q, QueryResult{Err: fmt.Errorf("server: model %s has no serving capacity (instance %s lost: %v)", ri.model, ri.typeName, cause)})
	}
	g.wake()
	if cb := c.onDown.Load(); cb != nil && wasMember {
		(*cb)(ri.model, ri.typeName, ri.addr, cause)
	}
}

// groupLoop is one model's scheduler goroutine: it runs that group's
// distribution rounds whenever kicked, independently of every other model.
func (c *Controller) groupLoop(g *modelGroup) {
	defer c.wg.Done()
	for {
		select {
		case <-c.closed:
			return
		case <-g.kick:
			// Yield once before the round so concurrently-runnable
			// submitters and reply readers get to extend the queue first:
			// a round over a burst coalesces its dispatch writes, while a
			// round per query pays a syscall each. Costs nothing when the
			// run queue is empty.
			runtime.Gosched()
			c.groupRound(g)
		}
	}
}

// dispatchItem pairs a dispatched query with its target and the busy-time
// reservation taken for it, so a failed write can undo the reservation.
// id and batch are captured under the group lock while the query is
// provably live: once the round's lock is released the query may complete
// through another path and be recycled, so its fields must not be re-read.
type dispatchItem struct {
	q       *pendingQuery
	ri      *remoteInstance
	id      int64
	batch   int
	traced  bool
	reserve time.Duration
}

// groupRound runs one distribution round for one group and performs the
// network writes outside the lock. Writes to the same instance are
// coalesced: every frame of the burst is queued into the instance's
// buffered writer and flushed once — one syscall per instance per round.
func (c *Controller) groupRound(g *modelGroup) {
	g.mu.Lock()
	dispatch := c.groupRoundLocked(g, time.Now())
	g.mu.Unlock()
	// Deadline expiries swept by the round fail outside the lock; only
	// the group's scheduler goroutine touches the expired scratch.
	if len(g.expired) > 0 {
		for i, q := range g.expired {
			c.deliver(q, QueryResult{Err: errDeadlineExceeded})
			g.expired[i] = nil
		}
		g.expired = g.expired[:0]
	}
	if len(dispatch) == 0 {
		return
	}
	flush := g.flushSet[:0]
	for _, d := range dispatch {
		if err := d.ri.wc.queueRequest(Request{ID: d.id, Model: g.model, Batch: d.batch, Trace: d.traced}); err != nil {
			c.undoDispatch(g, d, err)
			continue
		}
		if !d.ri.needsFlush {
			d.ri.needsFlush = true
			flush = append(flush, d.ri)
		}
	}
	for _, ri := range flush {
		ri.needsFlush = false
		if err := ri.wc.flush(); err != nil {
			// The whole burst queued to this instance failed to reach it.
			for _, d := range dispatch {
				if d.ri == ri {
					c.undoDispatch(g, d, err)
				}
			}
		}
	}
	// Drop the burst's query and instance pointers from the reusable
	// scratch: an idle group must not pin delivered (possibly recycled)
	// queries or removed instances until its next round.
	for i := range dispatch {
		dispatch[i] = dispatchItem{}
	}
	g.dispatch = dispatch[:0]
	for i := range flush {
		flush[i] = nil
	}
	g.flushSet = flush[:0]
}

// undoDispatch rolls back one failed dispatch write: the query leaves the
// instance's pending set, the dispatch count reverts, and the busy-time
// reservation groupRoundLocked took is undone — the policy must not see
// phantom busy time on a flaky instance. The query goes back to the head
// of the central queue instead of failing: a write error means the
// connection is broken (the read side will evict the instance momentarily)
// and an admitted query must survive a flaky instance. The instance is
// marked draining so the next round routes around it rather than spinning
// on the dead connection. A query already completed through another path
// (reply, eviction, close) has left byID and is left alone; the identity
// check also keeps a recycled pendingQuery safe.
func (c *Controller) undoDispatch(g *modelGroup, d dispatchItem, cause error) {
	_ = cause // recorded by the eviction that follows the broken write
	g.mu.Lock()
	if d.ri.byID[d.id] != d.q {
		g.mu.Unlock()
		return
	}
	delete(d.ri.byID, d.id)
	for k, p := range d.ri.pending {
		if p == d.q {
			d.ri.pending = append(d.ri.pending[:k], d.ri.pending[k+1:]...)
			break
		}
	}
	d.ri.dispatched--
	d.ri.busyUntil = d.ri.busyUntil.Add(-d.reserve)
	d.ri.draining = true
	g.rebuildRingLocked()
	g.waiting = append([]*pendingQuery{d.q}, g.waiting...)
	g.mu.Unlock()
	g.wake()
}

// takeLocked dispatches one query to one instance: the busy-time
// reservation, pending/byID bookkeeping, and flight-recorder stamp every
// dispatch path shares. Callers hold g.mu.
func (c *Controller) takeLocked(g *modelGroup, q *pendingQuery, ri *remoteInstance, now time.Time) dispatchItem {
	service := g.predict(ri.typeName, q.batch)
	scaled := time.Duration(service * c.TimeScale * float64(time.Millisecond))
	if ri.busyUntil.Before(now) {
		ri.busyUntil = now
	}
	ri.busyUntil = ri.busyUntil.Add(scaled)
	ri.pending = append(ri.pending, q)
	ri.byID[q.id] = q
	ri.dispatched++
	// Flight-recorder stamp: the round's clock read doubles as the
	// dispatch timestamp — scheduler wait is enqueue → here.
	q.dispatched = now
	g.obs.Record(obs.StageQueue, now.Sub(q.enqueued))
	return dispatchItem{q: q, ri: ri, id: q.id, batch: q.batch, traced: q.traced, reserve: scaled}
}

// groupRoundLocked runs one model group's dispatch round: sweep expired
// deadlines, dispatch session-affine queries to their ring-preferred
// instances, then build the policy views over what remains and collect
// the policy's assignments. Draining instances are invisible to both
// passes, so a removal never receives new work. The view and dispatch
// slices are the group's reusable scratch — a steady-state round
// allocates nothing. Callers hold g.mu.
func (c *Controller) groupRoundLocked(g *modelGroup, now time.Time) []dispatchItem {
	if len(g.waiting) == 0 {
		return nil
	}
	// Deadline sweep: expired queries leave the queue before any
	// dispatch decision — it runs even with zero capacity, so a deadline
	// bounds an empty-hold park too. The common all-alive case is a
	// single scan; the compaction pass only runs when something expired.
	nexp := 0
	for _, q := range g.waiting {
		if !q.deadline.IsZero() && now.After(q.deadline) {
			nexp++
		}
	}
	if nexp > 0 {
		next := g.waiting[:0]
		for _, q := range g.waiting {
			if !q.deadline.IsZero() && now.After(q.deadline) {
				g.expired = append(g.expired, q)
			} else {
				next = append(next, q)
			}
		}
		for i := len(next); i < len(g.waiting); i++ {
			g.waiting[i] = nil
		}
		g.waiting = next
		if len(g.waiting) == 0 {
			return nil
		}
	}
	active := g.active[:0]
	for _, ri := range g.instances {
		if !ri.draining {
			active = append(active, ri)
		}
	}
	g.active = active
	if len(active) == 0 {
		return nil
	}
	toModelMS := func(d time.Duration) float64 {
		if d < 0 {
			return 0
		}
		return float64(d) / float64(time.Millisecond) / c.TimeScale
	}
	if cap(g.taken) < len(g.waiting) {
		g.taken = make([]bool, len(g.waiting))
	}
	taken := g.taken[:len(g.waiting)]
	for i := range taken {
		taken[i] = false
	}
	dispatch := g.dispatch[:0]
	ntaken := 0
	// Affinity pass: session-keyed queries try their ring-preferred
	// instance first, under the bounded-load cap, before the policy sees
	// the queue. The pass updates pending and busy time as it takes, so
	// the policy's instance views include the affinity dispatches.
	if len(g.ring.entries) > 0 {
		backlog := 0
		for _, ri := range active {
			backlog += len(ri.pending)
		}
		for i, q := range g.waiting {
			if q.session == 0 {
				continue
			}
			ri := g.ring.pick(q.session, affinityBound(backlog, len(active)))
			if ri == nil {
				continue // saturated ring: the policy routes this one
			}
			taken[i] = true
			ntaken++
			backlog++
			dispatch = append(dispatch, c.takeLocked(g, q, ri, now))
		}
	}
	qviews := g.qviews[:0]
	for i, q := range g.waiting {
		if taken[i] {
			continue
		}
		// Index is the query's position in g.waiting (affinity-taken
		// entries are skipped but keep their slots, so indices stay
		// stable); ID carries the stable arrival sequence number that
		// partitioned policies key on across scheduling rounds.
		qviews = append(qviews, sim.QueryView{Index: i, ID: int(q.id), Batch: q.batch, WaitMS: toModelMS(now.Sub(q.enqueued))})
	}
	g.qviews = qviews
	// One backing array serves every instance's QueuedBatches view; size it
	// upfront so the per-instance subslices never reallocate apart.
	total := 0
	for _, ri := range active {
		if n := len(ri.pending) - 1; n > 0 {
			total += n
		}
	}
	if cap(g.queuedBuf) < total {
		g.queuedBuf = make([]int, 0, total)
	}
	qb := g.queuedBuf[:0]
	iviews := g.iviews[:0]
	for i, ri := range active {
		start := len(qb)
		// The head of pending is in flight; the rest are queued behind it.
		for k := 1; k < len(ri.pending); k++ {
			qb = append(qb, ri.pending[k].batch)
		}
		queued := qb[start:len(qb):len(qb)]
		if len(queued) == 0 {
			queued = nil
		}
		remaining := 0.0
		if len(ri.pending) > 0 {
			remaining = toModelMS(ri.busyUntil.Sub(now))
			if len(queued) > 0 {
				// busyUntil covers the whole backlog; attribute the queued
				// service to QueuedBatches and keep the remainder here.
				for _, b := range queued {
					remaining -= g.predict(ri.typeName, b)
				}
				if remaining < 0 {
					remaining = 0
				}
			}
		}
		iviews = append(iviews, sim.InstanceView{Index: i, TypeName: ri.typeName, RemainingMS: remaining, QueuedBatches: queued})
	}
	g.iviews = iviews
	g.queuedBuf = qb
	if len(qviews) > 0 {
		assignments := g.policy.Assign(toModelMS(time.Duration(now.UnixNano())), qviews, iviews)
		for _, a := range assignments {
			if a.Query < 0 || a.Query >= len(g.waiting) || a.Instance < 0 || a.Instance >= len(active) || taken[a.Query] {
				continue
			}
			taken[a.Query] = true
			ntaken++
			dispatch = append(dispatch, c.takeLocked(g, g.waiting[a.Query], active[a.Instance], now))
		}
	}
	g.dispatch = dispatch
	if ntaken > 0 {
		next := g.waiting[:0]
		for i, q := range g.waiting {
			if !taken[i] {
				next = append(next, q)
			}
		}
		// Clear the compacted tail so completed queries are collectable.
		for i := len(next); i < len(g.waiting); i++ {
			g.waiting[i] = nil
		}
		g.waiting = next
	}
	// The active view is rebuilt each round; don't let it pin removed
	// instances while the group idles.
	for i := range active {
		active[i] = nil
	}
	g.active = active[:0]
	return dispatch
}

// readLoop consumes replies from one instance and completes queries.
// When the connection dies outside Close, the instance is evicted from
// the fleet and its in-flight queries are requeued for redispatch — so
// drains never wait on a dead instance and submitters never hang on a
// lost reply. Correlation is O(1) through the instance's byID index.
func (c *Controller) readLoop(ri *remoteInstance) {
	defer c.wg.Done()
	g := c.groups[ri.model]
	var reply Reply // hoisted: &reply escapes, one reply per loop not per read
	for {
		reply = Reply{}
		if err := ri.wc.readReply(&reply); err != nil {
			select {
			case <-c.closed:
				// Close owns the cleanup of pending queries.
			default:
				c.evict(ri, err)
			}
			return
		}
		now := time.Now()
		g.mu.Lock()
		q := ri.byID[reply.ID]
		if q != nil {
			delete(ri.byID, reply.ID)
			// Instances serve in dispatch order, so the reply is almost
			// always for the head of pending.
			for k, p := range ri.pending {
				if p == q {
					ri.pending = append(ri.pending[:k], ri.pending[k+1:]...)
					break
				}
			}
			if q.completed.Load() {
				q = nil // already failed by Close or eviction
			}
		}
		if q != nil && reply.Err == "" {
			ri.completed++
			ri.busyMS += reply.ServiceMS
			// Ground-truth service feedback, exactly as the simulator
			// delivers it: online learners and query monitors train from
			// real completions too. Under g.mu so Observe never races
			// Assign (policies are not internally synchronized).
			if g.observer != nil {
				g.observer.Observe(ri.typeName, q.batch, reply.ServiceMS)
			}
		}
		g.mu.Unlock()
		if q == nil {
			continue // stale reply or already failed by Close
		}
		res := QueryResult{
			LatencyMS: float64(now.Sub(q.enqueued)) / float64(time.Millisecond) / c.TimeScale,
			Instance:  ri.typeName,
		}
		if reply.Err != "" {
			res.Err = errors.New(reply.Err)
		} else {
			// Flight-recorder stamps, reusing this read's clock sample: a
			// few atomic adds per completion, a ring write for the sampled.
			// Failure timings are excluded so stage histograms reflect
			// serving latency, not eviction timing; failed traced queries
			// get their ring record in deliver.
			e2e := now.Sub(q.enqueued)
			flight := now.Sub(q.dispatched)
			serve := time.Duration(reply.ServiceMS * c.TimeScale * float64(time.Millisecond))
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
		c.deliver(q, res)
		g.wake()
	}
}
