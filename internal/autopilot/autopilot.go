// Package autopilot closes the paper's Fig. 12 adaptation loop over the
// real network serving path, for a set of models sharing one cost budget:
// per-model rolling-window live monitors fed from controller completions,
// per-model drift triggers (DriftDetector) plus SLO-violation triggers
// and a fleet-wide scale-in trigger on sustained under-utilization, a
// replan step invoking the shared-budget fleet planner with the live
// windows (and observed arrival rates) as its inputs, and an actuator
// that reconciles every model's running fleet — launching and draining
// instances at runtime — toward the fresh plan. A trigger fired by one
// model replans the whole fleet, so budget freed by a cooling model flows
// to a heating one. It is the control plane that turns the monitors,
// planner, and controller from isolated components into a self-managing
// multi-model serving system (INFaaS-style managed adaptivity,
// KubeAI-style reconciliation).
//
// The system's two outward edges are pluggable: actuation goes through
// the Provider interface (the Fleet, launching in-process servers or
// kairosd processes, or anything else that can launch and stop
// instances), and external traffic arrives through an optional
// internal/ingress front-end whose lifecycle the autopilot owns.
package autopilot

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"kairos/internal/cloud"
	"kairos/internal/core"
	"kairos/internal/ingress"
	"kairos/internal/models"
	"kairos/internal/obs"
	"kairos/internal/server"
	"kairos/internal/workload"
)

// Defaults for zero-valued Options fields.
const (
	// DefaultInterval is the control-loop period (wall clock).
	DefaultInterval = time.Second
	// DefaultWindow sizes the live batch-mix and latency windows.
	DefaultWindow = workload.DefaultWindow
	// DefaultScaleInTicks is how many consecutive under-utilized control
	// ticks arm the scale-in trigger.
	DefaultScaleInTicks = 5
)

// The control loop's fixed rules.
const (
	// SLOPercentile is the paper's tail-latency percentile: each model's
	// windowed p99 is checked against its QoS target.
	SLOPercentile float64 = 99
	// ScaleInHysteresis is the utilization band above the scale-in floor
	// that resets the consecutive-tick counter; readings inside the band
	// neither arm nor reset, damping oscillation around the floor.
	ScaleInHysteresis = 0.05
)

// PlanFunc produces a fresh fleet plan from per-model live batch-size
// samples and observed arrival rates (model-time QPS; a model absent from
// arrivals has unknown demand). A non-positive budget asks for the
// planner's full configured budget; a positive one caps spending (the
// scale-in trigger passes a shrunk budget to shed cost).
type PlanFunc func(samples map[string][]int, arrivals map[string]float64, budget float64) (core.FleetPlan, error)

// Options describe an autopilot deployment — everything a caller sets and
// nothing the engine wires (that is Wiring). Every zero value picks a
// documented default; withDefaults is the one place they are filled and
// checked, before anything is launched.
type Options struct {
	// Interval is the control-loop period (wall clock); 0 uses
	// DefaultInterval.
	Interval time.Duration
	// DriftThreshold is the total-variation trigger in (0,1); 0 uses
	// DefaultDriftThreshold.
	DriftThreshold float64
	// Window sizes the rolling per-model batch-mix and latency windows;
	// 0 uses DefaultWindow.
	Window int
	// MinObservations gates a model's triggers until its live window holds
	// this many completions; 0 uses Window/10 (at least 1). It may not
	// exceed Window, which could then never hold it.
	MinObservations int
	// Cooldown is the minimum wall-clock gap between replans; 0 uses
	// 2*Interval.
	Cooldown time.Duration
	// ScaleInFloor enables the scale-in trigger: when the fleet-wide busy
	// fraction stays below the floor for ScaleInTicks consecutive control
	// ticks, the autopilot replans under a shrunk budget to shed cost.
	// 0 disables scale-in.
	ScaleInFloor float64
	// ScaleInTicks is the consecutive-tick count arming scale-in; 0 uses
	// DefaultScaleInTicks.
	ScaleInTicks int
	// Logf, when set, receives one line per control decision.
	Logf func(format string, args ...any)

	// DemandHeadroom tunes demand-aware replanning: every replan caps each
	// model's planned throughput at its observed arrival rate times
	// (1 + DemandHeadroom), leaving surplus budget unspent instead of
	// buying capacity no model needs (see core.PlanFleet). 0 uses
	// core.DefaultHeadroom; a negative value is refused.
	DemandHeadroom float64
	// OnDemandFloor arms risk-bounded spot planning, as a fraction of each
	// model's observed arrival rate: in a pool carrying spot capacity
	// (cloud.Pool.WithSpotMarket), every latency-critical model's
	// allocation must keep an on-demand-only throughput upper bound of at
	// least OnDemandFloor times its arrival rate, so losing every spot
	// instance at once still leaves that fraction of demand servable (see
	// core.ModelDemand.OnDemandFloor). 0 disables the floor; it is also
	// inert in pools without spot capacity and for a model whose arrival
	// rate is still unknown.
	OnDemandFloor float64

	// Provider is the actuation driver the fleet is launched through; nil
	// uses the in-process Fleet at the deployment's time scale. The
	// autopilot takes ownership: Close stops the provider's instances. A
	// provider that reports another time scale than the deployment's is
	// refused — every latency, rate and utilization reading would be
	// skewed.
	Provider Provider
	// Ingress, when set, opens the external query front door over the
	// managed controller: an HTTP JSON endpoint and/or a binary-TCP
	// endpoint (at least one address; "127.0.0.1:0" binds an ephemeral
	// port), a per-model bound on admitted-but-unfinished queries, and
	// optionally a bearer-token list and per-client rate limit (see
	// ingress.Options). The autopilot owns its lifecycle: it opens with
	// the autopilot and closes with Close, before the controller goes
	// away. A nil Ingress.Logf inherits Logf.
	Ingress *ingress.Options
}

// Wiring is what the engine supplies around the caller's Options: the
// deployment the autopilot manages and the planner it replans with.
type Wiring struct {
	// Pool is the instance-type universe plans are drawn from.
	Pool cloud.Pool
	// Models are the served workloads sharing the budget.
	Models []models.Model
	// Plan produces a fresh fleet plan from the live windows; Launch
	// installs the shared-budget planner.
	Plan PlanFunc
	// References maps model names to the batch samples behind the initial
	// plan; each model's drift detector is armed on its reference. Models
	// without one arm lazily on their first warm live window.
	References map[string][]int
	// TimeScale is the serving path's time dilation factor (it must match
	// the controller's and the instances'); non-positive means real time.
	TimeScale float64
}

// check validates what New needs of the wiring.
func (w Wiring) check() error {
	if len(w.Pool) == 0 {
		return fmt.Errorf("autopilot: wiring needs a pool")
	}
	if len(w.Models) == 0 {
		return fmt.Errorf("autopilot: wiring needs at least one model")
	}
	seen := make(map[string]bool, len(w.Models))
	for _, m := range w.Models {
		if m.QoS <= 0 {
			return fmt.Errorf("autopilot: model %q needs a positive QoS target", m.Name)
		}
		if seen[m.Name] {
			return fmt.Errorf("autopilot: duplicate model %q", m.Name)
		}
		seen[m.Name] = true
	}
	if w.Plan == nil {
		return fmt.Errorf("autopilot: wiring needs a Plan function")
	}
	return nil
}

// withDefaults is the one function that validates the options and fills
// the zero values, for a deployment of ms at timeScale. It launches
// nothing: Launch and New run it before a provider or a listener is
// touched, so a bad option never leaves an instance behind.
func (o Options) withDefaults(timeScale float64, ms []models.Model) (Options, error) {
	if timeScale <= 0 {
		timeScale = 1
	}
	if o.Interval <= 0 {
		o.Interval = DefaultInterval
	}
	if o.DriftThreshold == 0 {
		o.DriftThreshold = DefaultDriftThreshold
	}
	if o.DriftThreshold <= 0 || o.DriftThreshold >= 1 {
		return o, fmt.Errorf("autopilot: drift threshold %v outside (0,1)", o.DriftThreshold)
	}
	if o.Window <= 0 {
		o.Window = DefaultWindow
	}
	if o.MinObservations <= 0 {
		o.MinObservations = max(o.Window/10, 1)
	}
	if o.MinObservations > o.Window {
		return o, fmt.Errorf("autopilot: %d minimum observations exceed the %d-query window, so no model would ever warm",
			o.MinObservations, o.Window)
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 2 * o.Interval
	}
	if o.ScaleInFloor < 0 || o.ScaleInFloor+ScaleInHysteresis >= 1 {
		return o, fmt.Errorf("autopilot: scale-in floor %v outside [0,%v)", o.ScaleInFloor, 1-ScaleInHysteresis)
	}
	if o.ScaleInFloor > 0 && o.ScaleInTicks <= 0 {
		o.ScaleInTicks = DefaultScaleInTicks
	}
	if o.DemandHeadroom == 0 {
		o.DemandHeadroom = core.DefaultHeadroom
	}
	if o.DemandHeadroom < 0 {
		return o, fmt.Errorf("autopilot: negative demand headroom %v", o.DemandHeadroom)
	}
	if o.OnDemandFloor < 0 {
		return o, fmt.Errorf("autopilot: negative on-demand floor %v", o.OnDemandFloor)
	}
	if o.Ingress != nil {
		door := *o.Ingress // the caller's struct may describe more than one deployment
		if err := door.Validate(); err != nil {
			return o, err
		}
		if door.Logf == nil {
			door.Logf = o.Logf
		}
		o.Ingress = &door
	}
	if o.Provider == nil {
		o.Provider = NewFleet(timeScale, ms...)
	} else if ts := o.Provider.TimeScale(); ts != timeScale {
		return o, fmt.Errorf("autopilot: provider runs at time scale %v, the deployment at %v", ts, timeScale)
	}
	return o, nil
}

// budgetPlanner builds the shared-budget planner a launched autopilot
// replans with: every served model with a planning sample competes for
// budget by marginal throughput-per-dollar, capped at its observed demand
// (Options.DemandHeadroom) and floored on on-demand capacity
// (Options.OnDemandFloor). Every replan is a from-scratch core.PlanFleet
// over the fresh windows, and the plan it returns is the caller's own.
func budgetPlanner(pool cloud.Pool, ms []models.Model, fullBudget float64, o Options) PlanFunc {
	// The closure outlives Launch; it keeps the two numbers, not the
	// options (and the provider and door those hold).
	headroom, floor := o.DemandHeadroom, o.OnDemandFloor
	return func(samples map[string][]int, arrivals map[string]float64, budget float64) (core.FleetPlan, error) {
		if budget <= 0 {
			budget = fullBudget
		}
		demands := make([]core.ModelDemand, 0, len(ms))
		for _, m := range ms {
			s := samples[m.Name]
			if len(s) == 0 {
				continue
			}
			// The on-demand floor derives from the same observed demand the
			// cap does, so it rides the same arrival rate (and is inert while
			// the rate is unknown).
			demands = append(demands, core.ModelDemand{
				Model: m, Samples: s, ArrivalQPS: arrivals[m.Name], Headroom: headroom, OnDemandFloor: floor,
			})
		}
		if len(demands) == 0 {
			return nil, fmt.Errorf("autopilot: no model has a planning sample")
		}
		return core.PlanFleet(pool, demands, budget)
	}
}

// Autopilot runs the monitor -> detect -> replan -> actuate loop over one
// multi-model controller and its actuation provider, as four owners: sense
// (sense.go) turns completions and controller counters into one tick's
// readings, decide (decide.go) turns readings into a Decision, reconcile
// (reconcile.go) is the one way a plan reaches the fleet, and report
// (admin.go, prom.go, journal.go) is one snapshot of the rest. Build it
// with New, start the loop with Start (or drive it deterministically with
// Step), and tear everything down — loop, admin endpoint, ingress,
// controller, and provider — with Close.
type Autopilot struct {
	fleet    fleet // the controller; an in-memory fake under the simulation test
	provider Provider
	ingress  *ingress.Server // nil when no front-end is configured
	wiring   Wiring
	opts     Options // defaults filled (withDefaults)
	// now is the one place wall time is read.
	now func() time.Time

	// names is the sorted model-name iteration order; states is read-only
	// after New (its fields carry their own locking rules).
	names  []string
	states map[string]*modelState

	// stepMu serializes the control sequences — Step, Heal, and the
	// reconcile after a preemption drain — each of which may block on the
	// planner, the provider and the controller.
	stepMu sync.Mutex

	// mu guards every piece of mutable state below down to admin, the
	// latency windows and rate estimates inside states, and the closing of
	// stop. It is never held across a call out of the package.
	mu         sync.Mutex
	current    core.FleetPlan
	replans    int
	lastReason string
	lastErr    string
	started    time.Time
	trig       triggers
	rates      rates
	faults     FaultStatus
	// releases are the controller holds the next reconcile answers (fault).
	releases []func()
	admin    *http.Server // nil until StartAdmin

	// faultKick wakes the control loop for an immediate heal instead of
	// waiting out the tick (buffered: the callback never blocks).
	faultKick chan struct{}

	loopOnce  sync.Once
	closeOnce sync.Once
	stop      chan struct{}
	loopDone  chan struct{}
	// spawned counts the preemption handlers and reap goroutines Close
	// waits for (see spawn).
	spawned sync.WaitGroup

	// journal is the bounded decision log behind /decisionz (read-only
	// after New; internally synchronized).
	journal *journal

	// planHist aggregates plan-computation latency and preemptHist
	// notice-to-drained latency for /metrics (internally synchronized; the
	// zero values are ready).
	planHist    obs.Histogram
	preemptHist obs.Histogram
}

// Launch deploys the wiring as a self-managing serving system: it checks
// the options, plans the initial fleet from the references under budget
// (one configuration per served model, split by marginal
// throughput-per-dollar), launches it through the provider, has connect
// dial the launched addresses into a controller, and assembles the
// autopilot (New) around them. Nothing is launched on a bad option, and
// everything launched is stopped again when a later step fails.
func Launch(w Wiring, budget float64, opts Options, connect func(addrs []string) (*server.Controller, error)) (*Autopilot, error) {
	o, err := opts.withDefaults(w.TimeScale, w.Models)
	if err != nil {
		return nil, err
	}
	w.Plan = budgetPlanner(w.Pool, w.Models, budget, o)
	initial, err := w.Plan(w.References, nil, 0)
	if err != nil {
		return nil, err
	}
	if initial.Total() == 0 {
		return nil, fmt.Errorf("autopilot: budget %v buys no configuration", budget)
	}
	addrs, err := Deploy(o.Provider, w.Pool, initial)
	if err != nil {
		o.Provider.Close()
		return nil, err
	}
	ctrl, err := connect(addrs)
	if err != nil {
		o.Provider.Close()
		return nil, err
	}
	ap, err := New(ctrl, initial, w, o)
	if err != nil {
		ctrl.Close()
		o.Provider.Close()
		return nil, err
	}
	return ap, nil
}

// New assembles an autopilot over a running controller and the provider
// (Options.Provider, required here) its initial fleet plan was deployed
// through. It installs itself as the controller's completion observer
// and, when Options.Ingress is set, opens the external front-end. The
// loop is not started; call Start.
func New(ctrl *server.Controller, initial core.FleetPlan, w Wiring, opts Options) (*Autopilot, error) {
	if ctrl == nil || opts.Provider == nil {
		return nil, fmt.Errorf("autopilot: needs a controller and a provider")
	}
	a, err := assemble(ctrl, initial, w, opts, time.Now)
	if err != nil {
		return nil, err
	}
	ctrl.SetOnComplete(a.observe)
	ctrl.SetOnInstanceDown(a.onInstanceDown)
	if a.opts.Ingress != nil {
		if a.ingress, err = ingress.New(ctrl, *a.opts.Ingress); err != nil {
			return nil, fmt.Errorf("autopilot: ingress: %w", err)
		}
	}
	return a, nil
}

// assemble validates the deployment and builds the autopilot's state over
// a fleet and a clock; New hands it the controller and the wall clock.
func assemble(fl fleet, initial core.FleetPlan, w Wiring, opts Options, now func() time.Time) (*Autopilot, error) {
	if err := w.check(); err != nil {
		return nil, err
	}
	if w.TimeScale <= 0 {
		w.TimeScale = 1
	}
	o, err := opts.withDefaults(w.TimeScale, w.Models)
	if err != nil {
		return nil, err
	}
	a := &Autopilot{
		fleet:     fl,
		provider:  o.Provider,
		wiring:    w,
		opts:      o,
		now:       now,
		states:    make(map[string]*modelState, len(w.Models)),
		current:   initial.Clone(),
		started:   now(),
		trig:      triggers{opts: o, pool: w.Pool, models: make(map[string]*modelTrigger, len(w.Models))},
		stop:      make(chan struct{}),
		loopDone:  make(chan struct{}),
		faultKick: make(chan struct{}, 1),
		journal:   newJournal(defaultJournalSize),
	}
	for _, m := range w.Models {
		a.states[m.Name] = &modelState{monitor: workload.NewMonitor(o.Window), latency: obs.NewWindow(o.Window)}
		mt := &modelTrigger{sloMS: m.QoS}
		if ref := w.References[m.Name]; ref != nil {
			if mt.detector, err = NewDriftDetector(ref, DefaultDriftBins); err != nil {
				return nil, fmt.Errorf("autopilot: reference for %s: %w", m.Name, err)
			}
		}
		a.trig.models[m.Name] = mt
		a.names = append(a.names, m.Name)
	}
	sort.Strings(a.names)
	a.trig.names = a.names
	if err := a.checkPlan(initial); err != nil {
		return nil, fmt.Errorf("autopilot: initial plan: %w", err)
	}
	return a, nil
}

// Controller returns the managed controller (for submitting load).
func (a *Autopilot) Controller() *server.Controller {
	ctrl, _ := a.fleet.(*server.Controller)
	return ctrl
}

// Provider returns the managed actuation provider.
func (a *Autopilot) Provider() Provider { return a.provider }

// Ingress returns the external front-end, or nil when none is configured.
func (a *Autopilot) Ingress() *ingress.Server { return a.ingress }

// Current returns the fleet plan in force.
func (a *Autopilot) Current() core.FleetPlan {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.current.Clone()
}

// Replans returns how many reconfigurations have been actuated.
func (a *Autopilot) Replans() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.replans
}

// Start launches the control loop; it ticks every Interval until Close.
func (a *Autopilot) Start() {
	a.loopOnce.Do(func() {
		go a.loop()
	})
}

// loop drives tick on the configured interval, heals on a fault kick, and
// hands each preemption notice to its own handler.
func (a *Autopilot) loop() {
	defer close(a.loopDone)
	ticker := time.NewTicker(a.opts.Interval)
	defer ticker.Stop()
	// Providers backed by revocable capacity announce preemptions; a nil
	// channel (one that cannot deliver) never fires.
	notices := a.provider.Notices()
	for {
		select {
		case <-a.stop:
			return
		case p := <-notices:
			// A revocation notice is a first-class trigger distinct from
			// death: drain the doomed instance and refill the hole before
			// the deadline. Handled concurrently — overlapping
			// notices in a preemption storm must drain in parallel, not
			// queue behind each other's drains.
			a.spawn(func() { a.handlePreemption(p) })
		case <-a.faultKick:
			// An instance died: heal now, not at the next tick.
			a.heal()
		case <-ticker.C:
			a.tick()
		}
	}
}

// heal is the loop's Heal: failures are logged and stay pending.
func (a *Autopilot) heal() {
	if _, err := a.Heal(); err != nil {
		a.logf("autopilot: heal failed: %v", err)
	}
}

// tick is one period of the loop. A failed reconcile leaves its fault
// pending; it is retried before the regular trigger evaluation so lost
// capacity is not stuck behind a cooldown.
func (a *Autopilot) tick() {
	a.heal()
	dec, err := a.Step()
	switch {
	case err != nil:
		a.logf("autopilot: step failed: %v", err)
	case dec.Replanned:
		a.logf("autopilot: replanned %v -> %v (%s)", dec.From, dec.To, dec.Reason)
	case dec.triggerNames() != "":
		a.logf("autopilot: trigger held back: %s", dec.Reason)
	}
}

// spawn runs fn on a goroutine Close waits for. Once Close has begun it
// runs nothing: the fleet is going away and there is nobody left to reap
// for or replan around.
func (a *Autopilot) spawn(fn func()) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.stopped() {
		return
	}
	a.spawned.Add(1) // stop is closed under mu, so never concurrent with Close's Wait
	go func() {
		defer a.spawned.Done()
		fn()
	}()
}

// stopped reports whether Close has begun.
func (a *Autopilot) stopped() bool {
	select {
	case <-a.stop:
		return true
	default:
		return false
	}
}

func (a *Autopilot) logf(format string, args ...any) {
	if a.opts.Logf != nil {
		a.opts.Logf(format, args...)
	}
}

// Close stops the control loop and the admin endpoint, shuts the ingress
// front-end (no new external queries; in-flight ones finish), closes the
// controller — which releases any preemption drain still blocked on an
// in-flight query — waits for every handler and reaper it spawned, and only
// then closes the provider, so nothing is launched after Close returns.
// It first releases the controller holds no heal will now answer.
// In-flight queries submitted directly to the controller fail as on
// Controller.Close; such submit loads should finish before closing.
func (a *Autopilot) Close() {
	a.closeOnce.Do(func() {
		a.mu.Lock()
		close(a.stop)
		admin, held := a.admin, a.releases
		a.releases = nil
		a.mu.Unlock()
		for _, r := range held {
			r()
		}
		a.loopOnce.Do(func() { close(a.loopDone) }) // loop never started
		<-a.loopDone
		if admin != nil {
			admin.Close()
		}
		if a.ingress != nil {
			a.ingress.Close()
		}
		a.fleet.Close()
		a.spawned.Wait()
		a.provider.Close()
	})
}
