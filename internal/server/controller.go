package server

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

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
// model cannot starve an idle one. Inside a group each concern has one
// owner: membership.go decides who is in the fleet, round.go decides what
// runs where, accounting.go counts.
// Those three read no clock and touch no socket; this file holds the
// goroutine shells that do — the dial, the read loop, the scheduler loop
// and Submit's enqueue stamp and deadline alarm.
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

	// onComplete, when set, observes every delivered QueryResult.
	onComplete atomic.Pointer[completionFunc]
	// onDown, when set, observes every instance eviction (death outside an
	// orderly RemoveInstance).
	onDown atomic.Pointer[instanceDownFunc]
	// augment, when set, merges front-end accounting into Stats snapshots.
	augment atomic.Pointer[func(*Stats)]
}

type completionFunc = func(model string, batch int, res QueryResult)

type instanceDownFunc = func(model, typeName, addr string, cause error, release func())

// GroupSpec describes one served model's scheduling group: the
// query-distribution policy deciding dispatches (it sees times in model
// milliseconds) and the latency predictor used for busy-time tracking.
type GroupSpec struct {
	Policy  sim.Distributor
	Predict func(typeName string, batch int) float64
}

// modelGroup is one model's serving shard: its policy, its slice of the
// fleet, its central queue, and its scheduler goroutine's kick channel.
// The fleet and the queue are guarded by the group's own mu; the counters
// are atomic so Submit accounting, completions, and Stats never contend
// with a scheduling round.
type modelGroup struct {
	model    string
	policy   sim.Distributor
	observer sim.Observer // policy's Observe, nil if not implemented
	predict  func(typeName string, batch int) float64
	kick     chan struct{}
	alarm    func()        // wake, bound once so arming a deadline alarm allocates only the timer
	obs      *obs.ModelObs // the model's flight-recorder shard

	submitted atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64

	mu sync.Mutex
	membership
	roundState
}

// wake nudges the group's scheduler without blocking.
func (g *modelGroup) wake() {
	select {
	case g.kick <- struct{}{}:
	default:
	}
}

var errClosed = errors.New("server: controller closed")

// isClosed reports whether Close has begun. Close takes every group's mu
// after closing the channel, so a false read under a group's mu means
// Close has not reached that group yet.
func (c *Controller) isClosed() bool {
	select {
	case <-c.closed:
		return true
	default:
		return false
	}
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
	c, err := newController(groups, timeScale)
	if err != nil {
		return nil, err
	}
	if len(addrs) == 0 {
		return nil, errors.New("server: controller needs at least one instance address")
	}
	if _, err := c.addInstances(addrs); err != nil {
		c.Close()
		return nil, err
	}
	for _, model := range c.order {
		c.wg.Add(1)
		go c.groupLoop(c.groups[model])
	}
	return c, nil
}

// newController builds the groups with no instance and no goroutine.
func newController(groups map[string]GroupSpec, timeScale float64) (*Controller, error) {
	if len(groups) == 0 {
		return nil, errors.New("server: controller needs at least one model group")
	}
	if timeScale <= 0 {
		timeScale = 1
	}
	c := &Controller{
		TimeScale: timeScale,
		groups:    make(map[string]*modelGroup, len(groups)),
		closed:    make(chan struct{}),
	}
	for model, spec := range groups {
		if model == "" || len(model) > math.MaxUint8 {
			return nil, fmt.Errorf("server: model group name %q is empty or longer than the wire's %d bytes", model, math.MaxUint8)
		}
		if spec.Policy == nil || spec.Predict == nil {
			return nil, fmt.Errorf("server: model group %s needs a policy and a predictor", model)
		}
		g := &modelGroup{model: model, policy: spec.Policy, predict: spec.Predict, kick: make(chan struct{}, 1)}
		g.observer, _ = spec.Policy.(sim.Observer)
		g.alarm = g.wake
		c.groups[model] = g
		c.order = append(c.order, model)
	}
	slices.Sort(c.order)
	c.obs = obs.NewRegistry(0, c.order...)
	for _, model := range c.order {
		c.groups[model].obs = c.obs.Model(model)
	}
	return c, nil
}

// dialInstance connects and handshakes with one instance server (Dial:
// the wire version, inside HandshakeTimeout), then holds the announced
// model to the served set.
func (c *Controller) dialInstance(addr string) (*remoteInstance, *wireConn, error) {
	conn, br, hello, err := Dial(addr, "controller", HelloAck{Proto: ProtoSession}, wireBufSize)
	if err != nil {
		return nil, nil, err
	}
	if _, ok := c.groups[hello.Model]; !ok {
		conn.Close()
		return nil, nil, fmt.Errorf("server: handshake with %s: instance %s announces model %q, controller serves %v", addr, hello.TypeName, hello.Model, c.order)
	}
	wc := newWireConn(conn, br)
	return &remoteInstance{
		model:     hello.Model,
		typeName:  hello.TypeName,
		addr:      addr,
		link:      wc,
		drained:   make(chan struct{}),
		serveHist: c.obs.Model(hello.Model).ServeHist(hello.TypeName),
		typeID:    c.obs.Intern(hello.TypeName),
	}, wc, nil
}

// AddInstance dials one more instance server into the rotation of the
// model its banner announces and returns that type name. Safe to call
// while traffic is flowing.
func (c *Controller) AddInstance(addr string) (string, error) {
	types, err := c.addInstances([]string{addr})
	if err != nil {
		return "", err
	}
	return types[0], nil
}

// addInstances is the one dial-and-admit path. It dials every address at
// once — k silent listeners cost one HandshakeTimeout — and admits the
// results in address order, the order policies index instances by, whatever
// order the network answered in. After a failed dial nothing is admitted,
// every link that opened is closed, and the error is the first in address
// order. It returns the admitted type names.
func (c *Controller) addInstances(addrs []string) (types []string, err error) {
	type dialed struct {
		ri  *remoteInstance
		wc  *wireConn
		err error
	}
	fleet := make([]dialed, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fleet[i].ri, fleet[i].wc, fleet[i].err = c.dialInstance(addr)
		}()
	}
	wg.Wait()
	if i := slices.IndexFunc(fleet, func(d dialed) bool { return d.err != nil }); i >= 0 {
		err = fleet[i].err
	}
	for _, d := range fleet {
		switch {
		case d.ri == nil: // a failed dial closed its own connection
		case err != nil:
			d.ri.link.close()
		default:
			// Refused only after Close, which closes the links admitted so far.
			err = c.admit(d.ri, func() { c.readLoop(d.ri, d.wc) })
			types = append(types, d.ri.typeName)
		}
	}
	return types, err
}

// admit is the one way into the fleet: under the group lock it refuses a
// closed controller, joins ri, and starts its reader on a goroutine Close
// waits for.
func (c *Controller) admit(ri *remoteInstance, reader func()) error {
	g := c.groups[ri.model]
	g.mu.Lock()
	if c.isClosed() {
		g.mu.Unlock()
		ri.link.close()
		return errClosed
	}
	g.setState(ri, stateActive)
	c.wg.Add(1)
	g.mu.Unlock()
	go func() {
		defer c.wg.Done()
		reader()
	}()
	g.wake() // held queries are dispatchable again
	return nil
}

// readLoop consumes replies from one instance. When the connection dies
// the instance leaves the fleet by the one fault exit (evict), so drains
// never wait on a dead instance and submitters never hang on a lost reply.
// When the link's writer failed and closed it, the eviction names that.
func (c *Controller) readLoop(ri *remoteInstance, wc *wireConn) {
	var reply Reply // hoisted: &reply escapes, one per loop not per read; readReply overwrites it whole
	for {
		if err := wc.readReply(&reply); err != nil {
			c.evict(ri, wc.w.Cause(err))
			return
		}
		c.complete(ri, reply, time.Now())
	}
}

// groupLoop is one model's scheduler goroutine: it runs schedule whenever
// kicked, independently of every other model; it owns no timer.
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
		}
		c.schedule(g, time.Now)
	}
}

// schedule is one wake-up of a group's scheduler: the round it was woken
// for, one more if a kick is already pending — a completion or submission
// that landed meanwhile would otherwise cost the links it touches a second
// write a moment later — and then one kick per touched link's writer. The
// extra round is at most one, so a queued dispatch waits for a bounded
// amount of deciding, and the kick always precedes the scheduler's sleep.
func (c *Controller) schedule(g *modelGroup, clock func() time.Time) {
	c.round(g, clock())
	select {
	case <-g.kick:
		c.round(g, clock())
	default:
	}
	c.flush(g)
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
func (c *Controller) Models() []string { return slices.Clone(c.order) }

// Hold parks the model's queries while its group has no instance, until
// release (a second call is a no-op). A control plane holds across one
// attempt to restore capacity — a drain it refills, a heal — so a parked
// query waits for that attempt and no longer.
func (c *Controller) Hold(model string) (release func()) {
	g, ok := c.groups[model]
	if !ok {
		return func() {}
	}
	g.mu.Lock()
	g.holds++
	g.mu.Unlock()
	return g.releaser()
}

// releaser returns the release of one counted hold; it kicks the round.
func (g *modelGroup) releaser() func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			g.mu.Lock()
			g.holds--
			g.mu.Unlock()
			g.wake()
		})
	}
}

// SetOnInstanceDown installs a callback observing every instance eviction
// — a connection lost outside an orderly RemoveInstance, i.e. a crash,
// wedge-then-reset, or network cut. It runs outside the controller locks,
// after the dead instance's queries have been requeued, and must not block
// for long. A control plane uses it to reap the dead process and trigger
// an immediate heal instead of waiting for the next drift tick; each
// eviction holds the model (Hold) until the heal calls release.
func (c *Controller) SetOnInstanceDown(fn func(model, typeName, addr string, cause error, release func())) {
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

// Sink receives one query's result. The controller calls QueryDone
// exactly once per submission, on the goroutine that decided the outcome —
// an instance's reply reader, the model's scheduler, Close, or the
// submitter itself, before SubmitTo returns, when the query is refused on
// the spot. It runs outside every controller lock, but on the serving
// path: it must not block and must not call back into the controller.
type Sink interface {
	QueryDone(QueryResult)
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

// SubmitTo enqueues one query for the named model and delivers its result
// to sink; it is the one way in, and parks no goroutine. Unknown models,
// models whose group currently has no serving capacity (every instance
// removed or draining — reachable when the shared-budget planner starves a
// model), and submissions after Close all fail immediately instead of
// hanging — except that a hold (Hold, SetOnInstanceDown) parks them.
// Every accepted or rejected submission is accounted, so completed +
// failed never exceeds submitted on any path.
//
// The scheduler wakes on kicks only, so a query that cannot dispatch
// would outsleep its deadline without this one-shot alarm; firing after
// the query completed is a harmless idle round, so it is never cancelled.
func (c *Controller) SubmitTo(model string, batch int, opts SubmitOptions, sink Sink) {
	now := time.Now()
	if g := c.enqueue(model, batch, opts, sink, now); g != nil && opts.Deadline.After(now) {
		time.AfterFunc(opts.Deadline.Sub(now), g.alarm)
	}
}

// chanSink is the blocking submitters' sink: a channel with room for the
// one result.
type chanSink chan QueryResult

func (s chanSink) QueryDone(res QueryResult) { s <- res }

// waitChans recycles SubmitWait's channels: the caller has provably
// received the one result before the channel is pooled again.
var waitChans = sync.Pool{New: func() any { return make(chanSink, 1) }}

// Submit is SubmitTo with a channel for a sink.
func (c *Controller) Submit(model string, batch int) <-chan QueryResult {
	ch := make(chanSink, 1)
	c.SubmitTo(model, batch, SubmitOptions{}, ch)
	return ch
}

// SubmitWait submits and blocks for the result. Unlike Submit it recycles
// its channel, so a closed-loop submitter allocates nothing per query in
// steady state.
func (c *Controller) SubmitWait(model string, batch int) QueryResult {
	return c.SubmitWaitOpts(model, batch, SubmitOptions{})
}

// SubmitWaitOpts is SubmitWait with routing hints.
func (c *Controller) SubmitWaitOpts(model string, batch int, opts SubmitOptions) QueryResult {
	ch := waitChans.Get().(chanSink)
	c.SubmitTo(model, batch, opts, ch)
	res := <-ch
	waitChans.Put(ch)
	return res
}

// OutstandingQueries snapshots every query the controller has accepted
// but not yet delivered, in model order. A drained fleet returns an
// empty slice; the soak checker uses this to name the exact stuck
// queries behind a zero-drop violation.
func (c *Controller) OutstandingQueries() []OutstandingQuery { return c.outstanding(time.Now()) }

// Close shuts down the controller and fails outstanding queries, both the
// centrally-waiting and the dispatched-but-unfinished ones. Like every
// other completion path, the failures reach the onComplete observer.
func (c *Controller) Close() {
	c.closeOnce.Do(func() {
		close(c.closed)
		now := time.Now()
		for _, model := range c.order {
			g := c.groups[model]
			g.mu.Lock()
			var lost []failure
			for _, ri := range g.instances {
				ri.link.close()
				for _, q := range ri.strand() {
					lost = append(lost, failure{q, errClosed, ri.typeName})
				}
			}
			for _, q := range g.waiting {
				lost = append(lost, failure{q, errClosed, ""})
			}
			g.waiting = nil
			g.mu.Unlock()
			c.failAll(lost, now)
		}
	})
	c.wg.Wait()
}
