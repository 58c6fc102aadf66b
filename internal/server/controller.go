package server

import (
	"errors"
	"fmt"
	"net"
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
// runs where and when the group must next wake, accounting.go counts.
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

// handshakeTimeout bounds an instance dial from connect to HelloAck: a
// listener that accepts and never speaks must fail AddInstance, not hang
// it and the control plane's actuation above it.
const handshakeTimeout = 3 * time.Second

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
		if model == "" {
			return nil, errors.New("server: model group with an empty model name")
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

// dialInstance connects and handshakes with one instance server inside
// handshakeTimeout, validating the announced model against the served set
// and the announced wire version against this build's.
func (c *Controller) dialInstance(addr string) (*remoteInstance, *wireConn, error) {
	conn, err := net.DialTimeout("tcp", addr, handshakeTimeout)
	if err != nil {
		return nil, nil, fmt.Errorf("server: dialing %s: %w", addr, err)
	}
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	wc := newWireConn(conn)
	var hello Hello
	err = ReadFrame(wc.br, &hello)
	if err == nil {
		err = hello.Check()
	}
	if _, ok := c.groups[hello.Model]; err == nil && !ok {
		err = fmt.Errorf("instance %s announces model %q, controller serves %v", hello.TypeName, hello.Model, c.order)
	}
	if err == nil {
		err = wc.writeJSON(HelloAck{Proto: ProtoSession})
	}
	if err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("server: handshake with %s: %w", addr, err)
	}
	conn.SetDeadline(time.Time{})
	return &remoteInstance{
		model:     hello.Model,
		typeName:  hello.TypeName,
		addr:      addr,
		link:      wc,
		drained:   make(chan struct{}),
		byID:      make(map[int64]*pendingQuery),
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
// once — k silent listeners cost one handshakeTimeout — and admits the
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
func (c *Controller) readLoop(ri *remoteInstance, wc *wireConn) {
	var reply Reply // hoisted: &reply escapes, one per loop not per read; readReply overwrites it whole
	for {
		if err := wc.readReply(&reply); err != nil {
			c.evict(ri, err)
			return
		}
		c.complete(ri, reply, time.Now())
	}
}

// groupLoop is one model's scheduler goroutine: it runs schedule whenever
// kicked, independently of every other model, and owns the group's one
// timer — the round says when it needs to run without a kick (the end of
// an empty-hold window). The timer's channel is only selected on while
// such an instant exists: blocking on a timer channel puts the timer into
// the runtime's heap and waking takes it out, every time.
func (c *Controller) groupLoop(g *modelGroup) {
	defer c.wg.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var fire <-chan time.Time // timer.C while a wake-up is armed, else nil
	for {
		select {
		case <-c.closed:
			return
		case <-fire:
		case <-g.kick:
			// Yield once before the round so concurrently-runnable
			// submitters and reply readers get to extend the queue first:
			// a round over a burst coalesces its dispatch writes, while a
			// round per query pays a syscall each. Costs nothing when the
			// run queue is empty.
			runtime.Gosched()
		}
		if now, next := c.schedule(g, time.Now); next.IsZero() {
			fire = nil
		} else {
			fire = timer.C
			timer.Reset(next.Sub(now))
		}
	}
}

// schedule is one wake-up of a group's scheduler: the round it was woken
// for, one more if a kick is already pending — a completion or submission
// that landed meanwhile would otherwise cost the links it touches a second
// write a moment later — and then one flush per touched link. The extra
// round is at most one, so a queued dispatch waits for a bounded amount of
// deciding, and the flush always precedes the scheduler's sleep: the rule
// InstanceServer.serveConn applies to replies. It returns the last round's
// instant and the wake-up that round asked for.
func (c *Controller) schedule(g *modelGroup, clock func() time.Time) (now, next time.Time) {
	now = clock()
	next = c.round(g, now)
	select {
	case <-g.kick:
		now = clock()
		next = c.round(g, now)
	default:
	}
	c.flush(g)
	return now, next
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

// SetEmptyHold configures how long a model group that has lost every
// instance parks its waiting and newly submitted queries before failing
// them. The default (0) keeps the historical fail-fast behavior. A control
// plane that relaunches dead instances (internal/autopilot fault healing)
// sets this to its expected recovery time so the window between an
// instance crash and its replacement does not drop admitted queries.
func (c *Controller) SetEmptyHold(d time.Duration) { c.emptyHold.Store(int64(d)) }

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
// hanging — except that a configured empty-hold window (SetEmptyHold)
// parks capacity-less submissions for bounded fault recovery instead.
// Every accepted or rejected submission is accounted, so completed +
// failed never exceeds submitted on any path.
//
// The scheduler wakes on kicks and on its hold timer only, so a query that
// cannot dispatch would outsleep its deadline without this one-shot alarm;
// firing after the query completed is a harmless idle round, so it is
// never cancelled. (It is per query rather than one more case of the
// group's timer for the ledger's sake: see ROADMAP item 4(c).)
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
