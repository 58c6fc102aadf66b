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
// the Provider interface (the in-process Fleet, the kairosd-spawning
// ExecFleet, or anything else that can launch and stop instances), and
// external traffic arrives through an optional internal/ingress front-end
// whose lifecycle the autopilot owns.
package autopilot

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"kairos/internal/cloud"
	"kairos/internal/core"
	"kairos/internal/ingress"
	"kairos/internal/metrics"
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
	// DefaultSLOPercentile is the paper's tail-latency percentile.
	DefaultSLOPercentile = 99
	// DefaultScaleInTicks is how many consecutive under-utilized control
	// ticks arm the scale-in trigger.
	DefaultScaleInTicks = 5
	// DefaultScaleInHysteresis is the utilization band above the scale-in
	// floor that resets the consecutive-tick counter; readings inside the
	// band neither arm nor reset, damping oscillation around the floor.
	DefaultScaleInHysteresis = 0.05
)

// PlanFunc produces a fresh fleet plan from per-model live batch-size
// samples and observed arrival rates (model-time QPS; a model absent from
// arrivals has unknown demand). A non-positive budget asks for the
// planner's full configured budget; a positive one caps spending (the
// scale-in trigger passes a shrunk budget to shed cost).
type PlanFunc func(samples map[string][]int, arrivals map[string]float64, budget float64) (core.FleetPlan, error)

// ReplanModelFunc replans a single model's allocation (other models'
// slices stay fixed) from its live sample and arrival rate. A non-positive
// budget asks for the planner's full configured budget.
type ReplanModelFunc func(model string, samples []int, arrivalQPS, budget float64) (core.FleetPlan, error)

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
	// this many completions; 0 uses Window/10 (at least 1).
	MinObservations int
	// SLOPercentile is the tail percentile checked against each model's
	// latency objective; 0 uses DefaultSLOPercentile.
	SLOPercentile float64
	// SLOLatencyMS overrides every model's latency objective in model ms;
	// 0 uses each model's own QoS target.
	SLOLatencyMS float64
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
	// ScaleInHysteresis is the utilization band above the floor that
	// resets the tick counter; 0 uses DefaultScaleInHysteresis.
	ScaleInHysteresis float64
	// Logf, when set, receives one line per control decision.
	Logf func(format string, args ...any)

	// DemandHeadroom tunes demand-aware replanning: every replan caps each
	// model's planned throughput at its observed arrival rate times
	// (1 + DemandHeadroom), leaving surplus budget unspent instead of
	// buying capacity no model needs (see core.PlanFleet). Demand capping
	// is on by default: 0 uses core.DefaultHeadroom; a negative value
	// disables capping, so replans maximize throughput under the full
	// budget.
	DemandHeadroom float64
	// OnDemandFloor arms risk-bounded spot planning, as a fraction of each
	// model's observed arrival rate: in a pool carrying spot capacity
	// (cloud.Pool.WithSpotMarket), every latency-critical model's
	// allocation must keep an on-demand-only throughput upper bound of at
	// least OnDemandFloor times its arrival rate, so losing every spot
	// instance at once still leaves that fraction of demand servable (see
	// core.ModelDemand.OnDemandFloor). 0 disables the floor; it is also
	// inert in pools without spot capacity and while demand capping is
	// disabled.
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
	// Plan produces a fresh fleet plan from the live windows, and
	// ReplanModel, when set, lets the preemption path fill the hole a
	// revoked instance leaves before the revocation deadline without
	// paying a full-fleet replan (nil: a preemption re-actuates the plan
	// in force). Launch installs the shared-budget planner as both.
	Plan        PlanFunc
	ReplanModel ReplanModelFunc
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
		o.MinObservations = o.Window / 10
		if o.MinObservations < 1 {
			o.MinObservations = 1
		}
	}
	if o.SLOPercentile == 0 {
		o.SLOPercentile = DefaultSLOPercentile
	}
	if o.SLOPercentile <= 0 || o.SLOPercentile > 100 {
		return o, fmt.Errorf("autopilot: SLO percentile %v outside (0,100]", o.SLOPercentile)
	}
	if o.SLOLatencyMS < 0 {
		return o, fmt.Errorf("autopilot: negative SLO latency %v", o.SLOLatencyMS)
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 2 * o.Interval
	}
	if o.ScaleInFloor < 0 || o.ScaleInFloor >= 1 {
		return o, fmt.Errorf("autopilot: scale-in floor %v outside [0,1)", o.ScaleInFloor)
	}
	if o.ScaleInFloor > 0 {
		if o.ScaleInTicks <= 0 {
			o.ScaleInTicks = DefaultScaleInTicks
		}
		if o.ScaleInHysteresis == 0 {
			o.ScaleInHysteresis = DefaultScaleInHysteresis
		}
		if o.ScaleInHysteresis < 0 || o.ScaleInFloor+o.ScaleInHysteresis >= 1 {
			return o, fmt.Errorf("autopilot: scale-in hysteresis %v leaves no utilization headroom above floor %v",
				o.ScaleInHysteresis, o.ScaleInFloor)
		}
	}
	if o.DemandHeadroom == 0 {
		o.DemandHeadroom = core.DefaultHeadroom
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
	} else if ts, ok := o.Provider.(interface{ TimeScale() float64 }); ok && ts.TimeScale() != timeScale {
		return o, fmt.Errorf("autopilot: provider runs at time scale %v, the deployment at %v", ts.TimeScale(), timeScale)
	}
	return o, nil
}

// budgetPlanner builds the shared-budget planner a launched autopilot
// replans with: every served model with a planning sample competes for
// budget by marginal throughput-per-dollar, capped at its observed demand
// (Options.DemandHeadroom) and floored on on-demand capacity
// (Options.OnDemandFloor). One core.FleetPlanner lives for the autopilot's
// whole lifetime: replans hand it the fresh windows and it reuses every
// per-model frontier whose window did not move, so steady-state replans
// skip enumeration and frontier construction entirely. Safe without extra
// locking — the autopilot serializes planning under its step mutex.
func budgetPlanner(pool cloud.Pool, ms []models.Model, fullBudget float64, o Options) (PlanFunc, ReplanModelFunc, error) {
	planner, err := core.NewFleetPlanner(pool, fullBudget)
	if err != nil {
		return nil, nil, err
	}
	// The closures outlive Launch; they keep the two numbers, not the
	// options (and the provider and door those hold).
	headroom, floor := o.DemandHeadroom, o.OnDemandFloor
	demandFor := func(m models.Model, s []int, arrival float64) core.ModelDemand {
		d := core.ModelDemand{Model: m, Samples: s}
		if headroom > 0 {
			d.ArrivalQPS = arrival
			d.Headroom = headroom
			// The on-demand floor derives from the same observed demand the
			// cap does, so it rides the same arrival rate (and is inert
			// while demand capping is disabled or the rate is unknown).
			d.OnDemandFloor = floor
		}
		return d
	}
	plan := func(samples map[string][]int, arrivals map[string]float64, budget float64) (core.FleetPlan, error) {
		if budget <= 0 {
			budget = fullBudget
		}
		demands := make([]core.ModelDemand, 0, len(ms))
		for _, m := range ms {
			if s := samples[m.Name]; len(s) > 0 {
				demands = append(demands, demandFor(m, s, arrivals[m.Name]))
			}
		}
		if len(demands) == 0 {
			return nil, fmt.Errorf("autopilot: no model has a planning sample")
		}
		if err := planner.SetDemands(demands); err != nil {
			return nil, err
		}
		got, err := planner.Plan(budget)
		if err != nil {
			return nil, err
		}
		// The planner owns the returned plan's storage; the control loop
		// mutates the plan it actuates (heals decrement counts), so hand
		// it a private copy.
		return got.Clone(), nil
	}
	replanModel := func(model string, samples []int, arrivalQPS, budget float64) (core.FleetPlan, error) {
		if budget <= 0 {
			budget = fullBudget
		}
		for _, m := range ms {
			if m.Name == model {
				got, err := planner.ReplanModel(demandFor(m, samples, arrivalQPS), budget)
				if err != nil {
					return nil, err
				}
				return got.Clone(), nil
			}
		}
		return nil, fmt.Errorf("autopilot: replan for unknown model %q", model)
	}
	return plan, replanModel, nil
}

// modelState is one served model's live window and trigger state.
type modelState struct {
	model models.Model
	// sloMS is the model's latency objective (Options.SLOLatencyMS or the
	// model's own QoS target).
	sloMS float64
	// monitor is internally synchronized; latency is guarded by
	// Autopilot.latMu, detector and lastDrift by Autopilot.mu.
	monitor   *workload.Monitor
	latency   *metrics.Window
	detector  *DriftDetector
	lastDrift float64
	// lastCompleted, lastSubmitted, and lastRejected back the per-model
	// throughput and arrival-rate estimates (stepMu).
	lastCompleted int64
	lastSubmitted int64
	lastRejected  int64
	recentQPS     float64 // guarded by Autopilot.mu
	// arrivalQPS is the smoothed observed arrival rate in model-time QPS
	// (guarded by Autopilot.mu); it feeds the planner's demand caps.
	arrivalQPS float64
}

// Autopilot runs the monitor -> detect -> replan -> actuate loop over one
// multi-model controller and its actuation provider. Build it with New,
// start the loop with Start (or drive it deterministically with Step),
// and tear everything down — loop, admin endpoint, ingress, controller,
// and provider — with Close.
type Autopilot struct {
	ctrl     *server.Controller
	provider Provider
	ingress  *ingress.Server // nil when no front-end is configured
	wiring   Wiring
	opts     Options // defaults filled (withDefaults)

	// names is the sorted model-name iteration order; states is read-only
	// after New (its fields carry their own locking rules).
	names  []string
	states map[string]*modelState

	latMu sync.Mutex

	// stepMu serializes Step: the Start loop and manual Step callers may
	// otherwise interleave check-plan-actuate sequences.
	stepMu sync.Mutex

	mu         sync.Mutex
	current    core.FleetPlan
	replans    int
	lastChange time.Time
	lastReason string
	lastErr    string
	started    time.Time
	lowTicks   int // consecutive under-utilized control ticks

	// Fault state (mu): instance deaths reported by the controller's
	// eviction path, and the heal bookkeeping answering them.
	lastFault       time.Time
	lastFaultDetail string
	lastRecovery    time.Time
	instancesLost   int64
	heals           int64
	faultPending    bool
	// faultKick wakes the control loop for an immediate heal instead of
	// waiting out the tick (buffered: the callback never blocks).
	faultKick chan struct{}

	// Preemption state (mu): spot-market revocation notices and the
	// drain-ahead-of-death bookkeeping answering them.
	preemptNoticed        int64
	preemptDrained        int64
	preemptReplanned      int64
	preemptDeadlineDeaths int64
	lastPreempt           time.Time
	lastPreemptDetail     string

	// step-delta state for recent throughput/utilization estimates.
	lastStepAt        time.Time
	lastStepCompleted int64
	lastStepBusyMS    float64
	recentQPS         float64
	recentUtilization float64
	ratesValid        bool

	loopOnce  sync.Once
	closeOnce sync.Once
	stop      chan struct{}
	loopDone  chan struct{}

	adminMu     sync.Mutex
	admin       *adminServer
	adminClosed bool

	// journal is the bounded decision log behind /decisionz (read-only
	// after New; internally synchronized).
	journal *journal

	// lastActuateMS and lastPlanMS are the wall-clock costs of the most
	// recent fleet reconciliation and fleet replan computation, read by
	// the journal entry for the step that ran them (guarded by stepMu).
	lastActuateMS float64
	lastPlanMS    float64

	// planHist aggregates plan-computation latency for /metrics
	// (internally synchronized; the zero value is ready).
	planHist obs.Histogram
	// preemptHist aggregates notice-to-drained latency for /metrics
	// (internally synchronized; the zero value is ready).
	preemptHist obs.Histogram
}

// ModelDecision reports one model's trigger evaluation within a control
// iteration.
type ModelDecision struct {
	// Checked is false while the model's live window is too cold.
	Checked bool
	// Drift is the total-variation distance from the model's armed
	// reference.
	Drift float64
	// TailMS is the model's windowed SLO-percentile latency (model ms).
	TailMS float64
	// ArrivalQPS is the model's smoothed observed arrival rate handed to
	// the planner's demand caps (0 while unknown).
	ArrivalQPS float64
	// DriftTriggered and SLOTriggered report which triggers fired.
	DriftTriggered bool
	SLOTriggered   bool
}

// Decision reports one control-loop iteration over the whole fleet.
type Decision struct {
	// Checked is false while every model's live window is too cold to
	// evaluate the triggers.
	Checked bool
	// Models carries the per-model trigger evaluations.
	Models map[string]ModelDecision
	// DriftTriggered / SLOTriggered aggregate the per-model triggers;
	// ScaleInTriggered reports sustained fleet under-utilization.
	DriftTriggered   bool
	SLOTriggered     bool
	ScaleInTriggered bool
	// Utilization is the recent fleet-wide busy fraction in [0,1].
	Utilization float64
	// PlanBudget is the budget handed to the planner when one fired
	// (0 = the planner's full configured budget).
	PlanBudget float64
	// Held is true when a fired trigger was suppressed by the cooldown.
	Held bool
	// Replanned is true when a fresh plan was produced and actuated.
	Replanned bool
	// From and To are the fleet plans before and after; To is nil when no
	// replan happened.
	From, To core.FleetPlan
	// Reason summarizes the decision for logs and the admin endpoint.
	Reason string
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
	if w.Plan, w.ReplanModel, err = budgetPlanner(w.Pool, w.Models, budget, o); err != nil {
		return nil, err
	}
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
	if initial.Total() == 0 {
		return nil, fmt.Errorf("autopilot: initial plan %v deploys nothing", initial)
	}
	for name, cfg := range initial {
		if len(cfg) != len(w.Pool) {
			return nil, fmt.Errorf("autopilot: initial config %v for %s does not match the pool", cfg, name)
		}
	}
	a := &Autopilot{
		ctrl:      ctrl,
		provider:  o.Provider,
		wiring:    w,
		opts:      o,
		states:    make(map[string]*modelState, len(w.Models)),
		current:   initial.Clone(),
		started:   time.Now(),
		stop:      make(chan struct{}),
		loopDone:  make(chan struct{}),
		faultKick: make(chan struct{}, 1),
		journal:   newJournal(defaultJournalSize),
	}
	for _, m := range w.Models {
		st := &modelState{
			model:   m,
			sloMS:   m.QoS,
			monitor: workload.NewMonitor(o.Window),
			latency: metrics.NewWindow(o.Window),
		}
		if o.SLOLatencyMS > 0 {
			st.sloMS = o.SLOLatencyMS
		}
		if ref := w.References[m.Name]; ref != nil {
			det, err := NewDriftDetector(ref, DefaultDriftBins)
			if err != nil {
				return nil, fmt.Errorf("autopilot: reference for %s: %w", m.Name, err)
			}
			st.detector = det
		}
		a.states[m.Name] = st
		a.names = append(a.names, m.Name)
	}
	sort.Strings(a.names)
	ctrl.SetOnComplete(a.observe)
	ctrl.SetOnInstanceDown(a.onInstanceDown)
	if o.Ingress != nil {
		ing, err := ingress.New(ctrl, *o.Ingress)
		if err != nil {
			return nil, fmt.Errorf("autopilot: ingress: %w", err)
		}
		a.ingress = ing
	}
	return a, nil
}

// Controller returns the managed controller (for submitting load).
func (a *Autopilot) Controller() *server.Controller { return a.ctrl }

// Provider returns the managed actuation provider.
func (a *Autopilot) Provider() Provider { return a.provider }

// Ingress returns the external front-end, or nil when none is configured.
func (a *Autopilot) Ingress() *ingress.Server { return a.ingress }

// observe feeds the owning model's live window from one delivered
// completion.
func (a *Autopilot) observe(model string, batch int, res server.QueryResult) {
	st, ok := a.states[model]
	if !ok || res.Err != nil {
		return
	}
	st.monitor.Observe(batch)
	a.latMu.Lock()
	st.latency.Observe(res.LatencyMS)
	a.latMu.Unlock()
}

// onInstanceDown is the controller's eviction callback: an instance died
// outside an orderly removal. The fault is recorded, the provider's
// bookkeeping for the dead address is reaped (asynchronously — this runs
// on the controller's read path), and the control loop is kicked for an
// immediate heal instead of retrying a dead address until the next drift
// tick.
func (a *Autopilot) onInstanceDown(model, typeName, addr string, cause error) {
	detail := fmt.Sprintf("%s/%s at %s: %v", model, typeName, addr, cause)
	a.mu.Lock()
	a.lastFault = time.Now()
	a.lastFaultDetail = detail
	a.instancesLost++
	a.faultPending = true
	a.mu.Unlock()
	a.logf("autopilot: instance down: %s", detail)
	go func() {
		if err := reap(a.provider, addr); err != nil {
			a.logf("autopilot: reaping %s: %v", addr, err)
		}
		select {
		case a.faultKick <- struct{}{}:
		default:
		}
	}()
}

// Heal answers pending instance-death faults: it re-actuates the plan in
// force so the diff-based actuator relaunches exactly the missing
// instances. Unlike Step it bypasses the triggers and the cooldown — lost
// capacity is restored immediately, not on the next drift tick. It
// reports whether a heal ran. A failed heal leaves the fault pending so
// the next tick (or kick) retries.
func (a *Autopilot) Heal() (bool, error) {
	a.stepMu.Lock()
	defer a.stepMu.Unlock()
	a.mu.Lock()
	pending := a.faultPending
	a.faultPending = false
	plan := a.current.Clone()
	faultDetail := a.lastFaultDetail
	a.mu.Unlock()
	if !pending {
		return false, nil
	}
	actuateMS, err := a.apply("heal", plan)
	if err != nil {
		a.mu.Lock()
		a.faultPending = true
		a.mu.Unlock()
		a.journal.add(DecisionEvent{At: time.Now(), Kind: "error", Reason: "heal: " + faultDetail, Err: err.Error()})
		return false, err
	}
	a.journal.add(DecisionEvent{
		At: time.Now(), Kind: "heal", Reason: "healing fault: " + faultDetail,
		To: a.planCounts(plan), ActuationMS: actuateMS,
	})
	a.mu.Lock()
	a.lastRecovery = time.Now()
	a.heals++
	a.mu.Unlock()
	a.logf("autopilot: healed fleet back to %v", plan)
	return true, nil
}

// apply is the one way a plan reaches the fleet: reconcile toward it and,
// on success, install it as the plan in force (counting a reconfiguration
// if it differs), clear a recorded failure of the same kind, and force the
// rate estimator to re-baseline — removed instances take their cumulative
// BusyMS out of the stats, so the next delta would otherwise read as a
// phantom zero-utilization tick. kind ("heal", "preempt", "actuate") names
// the caller in the recorded and returned error. It reports the
// reconciliation's wall-clock cost in ms. Callers hold stepMu.
func (a *Autopilot) apply(kind string, plan core.FleetPlan) (float64, error) {
	start := time.Now()
	if err := a.actuate(plan); err != nil {
		a.setErr(kind + ": " + err.Error())
		return 0, fmt.Errorf("autopilot: %s: %w", kind, err)
	}
	a.mu.Lock()
	if !plan.Equal(a.current) {
		a.current = plan.Clone()
		a.replans++
	}
	if strings.HasPrefix(a.lastErr, kind+":") {
		a.lastErr = ""
	}
	a.lastStepAt = time.Time{}
	a.mu.Unlock()
	return float64(time.Since(start)) / float64(time.Millisecond), nil
}

// checkPlan reports why a planner's output cannot be actuated: it deploys
// nothing, names a model the autopilot does not manage, or carries a
// config that does not match the pool.
func (a *Autopilot) checkPlan(p core.FleetPlan) error {
	if p.Total() == 0 {
		return fmt.Errorf("planner returned unusable plan %v", p)
	}
	for name, cfg := range p {
		if _, ok := a.states[name]; !ok || len(cfg) != len(a.wiring.Pool) {
			return fmt.Errorf("planner returned unusable config %v for %q", cfg, name)
		}
	}
	return nil
}

// FaultState reports the fault/heal bookkeeping for observability: when
// the last instance death was observed and what it was, when the last
// heal completed, cumulative counts, and whether a fault is still
// unanswered.
func (a *Autopilot) FaultState() (lastFault, lastRecovery time.Time, detail string, lost, heals int64, pending bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastFault, a.lastRecovery, a.lastFaultDetail, a.instancesLost, a.heals, a.faultPending
}

// PreemptState reports the spot-revocation bookkeeping: notices received,
// instances drained ahead of their deadline, replans answering a drained
// notice, and notices whose instance died mid-drain (the deadline or
// another fault won the race — the eviction fallback handled those).
func (a *Autopilot) PreemptState() (noticed, drained, replanned, deadlineDeaths int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.preemptNoticed, a.preemptDrained, a.preemptReplanned, a.preemptDeadlineDeaths
}

// handlePreemption answers one revocation notice: drain the doomed
// instance immediately (reusing the controller's orderly removal, so
// in-flight queries finish and the backlog redistributes), release it at
// the provider, then replan the affected model around the hole — all
// racing the revocation deadline. An instance that dies mid-drain falls
// back to the eviction path: stranded queries were already redispatched
// and a heal kicked, so the notice handler just records the loss.
//
// Runs on its own goroutine per notice: the drain blocks on in-flight
// work and must not stall the control loop or other notices.
func (a *Autopilot) handlePreemption(p Preemption) {
	noticeAt := time.Now()
	a.mu.Lock()
	a.preemptNoticed++
	a.lastPreempt = noticeAt
	a.lastPreemptDetail = "notice for " + p.Addr
	a.mu.Unlock()
	a.logf("autopilot: preemption notice for %s (deadline in %v)", p.Addr, time.Until(p.Deadline).Round(time.Millisecond))

	model, typeName, died, err := a.ctrl.RemoveInstanceAddr(p.Addr)
	drainMS := float64(time.Since(noticeAt)) / float64(time.Millisecond)
	if err != nil {
		a.mu.Lock()
		a.lastPreemptDetail = fmt.Sprintf("notice for %s: %v", p.Addr, err)
		a.mu.Unlock()
		a.journal.add(DecisionEvent{
			At: time.Now(), Kind: "preempt",
			Reason: "preemption notice for " + p.Addr, Err: err.Error(), PreemptDrainMS: drainMS,
		})
		a.logf("autopilot: preemption drain of %s failed: %v", p.Addr, err)
		return
	}
	detail := fmt.Sprintf("%s/%s at %s", model, typeName, p.Addr)
	if died {
		a.mu.Lock()
		a.preemptDeadlineDeaths++
		a.lastPreemptDetail = detail + ": died mid-drain"
		a.mu.Unlock()
		a.journal.add(DecisionEvent{
			At: time.Now(), Kind: "preempt", PreemptDrainMS: drainMS,
			Reason: "preempted " + detail + " died mid-drain; eviction redispatch + heal fallback",
		})
		a.logf("autopilot: preempted %s died mid-drain; eviction fallback handled it", detail)
		return
	}
	a.preemptHist.Record(time.Since(noticeAt))
	if err := a.provider.Stop(p.Addr); err != nil {
		a.logf("autopilot: stopping preempted %s: %v", detail, err)
	}
	a.mu.Lock()
	a.preemptDrained++
	a.lastPreemptDetail = detail + ": drained"
	a.mu.Unlock()
	beatDeadline := ""
	if left := time.Until(p.Deadline); left > 0 {
		beatDeadline = fmt.Sprintf(", %v ahead of the deadline", left.Round(time.Millisecond))
	}
	a.logf("autopilot: drained preempted %s in %.1fms%s", detail, drainMS, beatDeadline)
	a.replanAfterPreemption(model, detail, noticeAt, drainMS)
}

// replanAfterPreemption fills the capacity hole a drained preemption
// left: a single-model incremental replan from the model's live window
// (Wiring.ReplanModel) when available, otherwise re-actuating the plan
// in force so the diff-based actuator relaunches the missing instance.
func (a *Autopilot) replanAfterPreemption(model, detail string, noticeAt time.Time, drainMS float64) {
	a.stepMu.Lock()
	defer a.stepMu.Unlock()

	var samples []int
	var arrival float64
	if st := a.states[model]; st != nil {
		if snap := st.monitor.Snapshot(); len(snap) >= a.opts.MinObservations {
			samples = snap
		} else if ref := a.wiring.References[model]; ref != nil {
			samples = ref
		} else if len(snap) > 0 {
			samples = snap
		}
		a.mu.Lock()
		arrival = st.arrivalQPS
		a.mu.Unlock()
	}
	a.mu.Lock()
	current := a.current.Clone()
	a.mu.Unlock()

	var planMS float64
	next := core.FleetPlan(nil)
	if a.wiring.ReplanModel != nil && len(samples) > 0 {
		planStart := time.Now()
		p, err := a.wiring.ReplanModel(model, samples, arrival, 0)
		planTook := time.Since(planStart)
		planMS = float64(planTook) / float64(time.Millisecond)
		a.planHist.Record(planTook)
		if err == nil {
			err = a.checkPlan(p)
		}
		if err != nil {
			a.logf("autopilot: preemption replan for %s: %v (re-actuating current plan)", model, err)
		} else {
			next = p
		}
	}
	reason := "preempted " + detail + ": drained and replanned"
	if next == nil {
		next = current
		reason = "preempted " + detail + ": drained and re-actuated the plan in force"
	}

	actuateMS, err := a.apply("preempt", next)
	if err != nil {
		// Leave recovery to the fault machinery: mark a fault pending and
		// kick the loop so Heal retries outside this handler.
		a.mu.Lock()
		a.faultPending = true
		a.mu.Unlock()
		a.journal.add(DecisionEvent{
			At: time.Now(), Kind: "preempt", Reason: "preempted " + detail + ": post-drain actuation failed",
			Err: err.Error(), PlanMS: planMS, PreemptDrainMS: drainMS,
		})
		select {
		case a.faultKick <- struct{}{}:
		default:
		}
		a.logf("autopilot: post-preemption actuation failed: %v", err)
		return
	}
	replanMS := float64(time.Since(noticeAt)) / float64(time.Millisecond)
	a.mu.Lock()
	a.preemptReplanned++
	a.mu.Unlock()
	a.journal.add(DecisionEvent{
		At: time.Now(), Kind: "preempt", Reason: reason,
		From: a.planCounts(current), To: a.planCounts(next),
		PlanMS: planMS, ActuationMS: actuateMS,
		PreemptDrainMS: drainMS, PreemptReplanMS: replanMS,
	})
	a.logf("autopilot: replanned around preempted %s in %.1fms (drain %.1fms)", detail, replanMS, drainMS)
}

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

// loop drives Step on the configured interval.
func (a *Autopilot) loop() {
	defer close(a.loopDone)
	ticker := time.NewTicker(a.opts.Interval)
	defer ticker.Stop()
	// Providers backed by revocable capacity announce preemptions; a nil
	// channel (no Noticer, or one that cannot deliver) never fires.
	var notices <-chan Preemption
	if n, ok := a.provider.(Noticer); ok {
		notices = n.Notices()
	}
	for {
		select {
		case <-a.stop:
			return
		case p := <-notices:
			// A revocation notice is a first-class trigger distinct from
			// death: drain the doomed instance and replan around the hole
			// before the deadline. Handled concurrently — overlapping
			// notices in a preemption storm must drain in parallel, not
			// queue behind each other's drains.
			go a.handlePreemption(p)
		case <-a.faultKick:
			// An instance died: heal now, not at the next tick.
			if _, err := a.Heal(); err != nil {
				a.logf("autopilot: heal failed: %v", err)
			}
		case <-ticker.C:
			// A failed heal leaves its fault pending; retry it before the
			// regular trigger evaluation so lost capacity is not stuck
			// behind a cooldown.
			if _, err := a.Heal(); err != nil {
				a.logf("autopilot: heal failed: %v", err)
			}
			dec, err := a.Step()
			switch {
			case err != nil:
				a.logf("autopilot: step failed: %v", err)
			case dec.Replanned:
				a.logf("autopilot: replanned %v -> %v (%s)", dec.From, dec.To, dec.Reason)
			case dec.Checked && (dec.DriftTriggered || dec.SLOTriggered || dec.ScaleInTriggered):
				a.logf("autopilot: trigger held back: %s", dec.Reason)
			}
		}
	}
}

func (a *Autopilot) logf(format string, args ...any) {
	if a.opts.Logf != nil {
		a.opts.Logf(format, args...)
	}
}

// triggerNames renders the fired per-model triggers for reasons/logs.
func (dec *Decision) triggerNames() string {
	var parts []string
	for _, kind := range []struct {
		on   bool
		name string
	}{{dec.DriftTriggered, "drift"}, {dec.SLOTriggered, "slo"}, {dec.ScaleInTriggered, "scale-in"}} {
		if kind.on {
			parts = append(parts, kind.name)
		}
	}
	return strings.Join(parts, "+")
}

// Step runs one control iteration: read every model's live window,
// evaluate the drift, SLO, and scale-in triggers, and — when one fires
// outside the cooldown — replan the whole fleet from the live samples and
// reconcile every model's fleet. It is the loop's body, exported so tests
// and tools can drive the control plane deterministically.
func (a *Autopilot) Step() (Decision, error) {
	a.stepMu.Lock()
	defer a.stepMu.Unlock()
	a.lastActuateMS = 0
	a.lastPlanMS = 0
	dec, err := a.step()
	a.journal.add(a.decisionEvent(dec, err, a.lastPlanMS, a.lastActuateMS))
	return dec, err
}

// step is Step's body; callers hold stepMu.
func (a *Autopilot) step() (Decision, error) {
	now := time.Now()
	util, utilOK := a.updateRates(now)

	// Smoothed observed arrival rates feed the planner's demand caps; a
	// model without a measured rate is absent (unknown demand, uncapped).
	arrivals := make(map[string]float64, len(a.names))
	a.mu.Lock()
	for _, name := range a.names {
		if q := a.states[name].arrivalQPS; q > 0 {
			arrivals[name] = q
		}
	}
	a.mu.Unlock()

	dec := Decision{Models: make(map[string]ModelDecision, len(a.names)), Utilization: util}
	samples := make(map[string][]int, len(a.names))
	for _, name := range a.names {
		st := a.states[name]
		md := ModelDecision{ArrivalQPS: arrivals[name]}
		snap := st.monitor.Snapshot()
		switch {
		case len(snap) >= a.opts.MinObservations:
			md.Checked = true
			samples[name] = snap

			a.latMu.Lock()
			md.TailMS = st.latency.Percentile(a.opts.SLOPercentile)
			latN := st.latency.Len()
			a.latMu.Unlock()
			md.SLOTriggered = latN >= a.opts.MinObservations && !math.IsNaN(md.TailMS) && md.TailMS > st.sloMS

			a.mu.Lock()
			if st.detector == nil {
				// Lazy arming: the model's first warm window becomes its
				// reference.
				det, err := NewDriftDetector(snap, DefaultDriftBins)
				if err != nil {
					a.mu.Unlock()
					return Decision{}, err
				}
				st.detector = det
			} else {
				drift, err := st.detector.Distance(snap)
				if err != nil {
					a.mu.Unlock()
					return Decision{}, err
				}
				md.Drift = drift
				st.lastDrift = drift
				md.DriftTriggered = drift > a.opts.DriftThreshold
			}
			a.mu.Unlock()
		case a.wiring.References[name] != nil:
			// Cold model: it still takes part in the fleet replan, planned
			// from the reference mix its current fleet was sized for.
			samples[name] = a.wiring.References[name]
		case len(snap) > 0:
			samples[name] = snap
		}
		dec.Models[name] = md
		dec.DriftTriggered = dec.DriftTriggered || md.DriftTriggered
		dec.SLOTriggered = dec.SLOTriggered || md.SLOTriggered
		dec.Checked = dec.Checked || md.Checked
	}
	if !dec.Checked {
		dec.Reason = fmt.Sprintf("windows cold (< %d observations per model)", a.opts.MinObservations)
		return dec, nil
	}
	dec.ScaleInTriggered = a.scaleInTick(util, utilOK)

	a.mu.Lock()
	current := a.current.Clone()
	sinceChange := now.Sub(a.lastChange)
	a.mu.Unlock()
	dec.From = current

	// Any iteration that completes without error supersedes a recorded
	// control failure — health reflects the latest loop outcome.
	switch {
	case !dec.DriftTriggered && !dec.SLOTriggered && !dec.ScaleInTriggered:
		a.setErr("")
		dec.Reason = fmt.Sprintf("steady (util %.2f, %s)", util, a.modelSummary(dec))
		return dec, nil
	case sinceChange < a.opts.Cooldown:
		a.setErr("")
		dec.Held = true
		dec.Reason = fmt.Sprintf("%s in cooldown (%.1fs of %.1fs)", dec.triggerNames(), sinceChange.Seconds(), a.opts.Cooldown.Seconds())
		return dec, nil
	}

	// Scale-in alone shrinks the budget toward the observed demand; any
	// drift or SLO breach replans at full budget (scale-out is always
	// allowed to spend everything).
	scaleInOnly := dec.ScaleInTriggered && !dec.DriftTriggered && !dec.SLOTriggered
	if scaleInOnly {
		cost := current.Cost(a.wiring.Pool)
		target := a.opts.ScaleInFloor + a.opts.ScaleInHysteresis
		shrunk := cost * util / target
		if min := a.cheapestPrice(); shrunk < min {
			shrunk = min
		}
		if shrunk >= cost-1e-9 {
			a.resetScaleIn()
			a.setErr("")
			dec.ScaleInTriggered = false
			dec.Reason = fmt.Sprintf("scale-in armed but nothing to shed (util %.2f, cost $%.2f/hr)", util, cost)
			return dec, nil
		}
		dec.PlanBudget = shrunk
	}

	planStart := time.Now()
	next, err := a.wiring.Plan(samples, arrivals, dec.PlanBudget)
	planTook := time.Since(planStart)
	a.lastPlanMS = float64(planTook) / float64(time.Millisecond)
	a.planHist.Record(planTook)
	if err != nil {
		a.setErr(fmt.Sprintf("replan: %v", err))
		return dec, fmt.Errorf("autopilot: replan: %w", err)
	}
	// A nil or empty plan (no feasible configuration) is a control failure
	// — except under a pure scale-in, where a shrunk budget that buys no
	// fleet simply means there is nothing safe to shed: keep the current
	// fleet and re-arm, instead of looping on a recorded error every tick.
	if next.Total() == 0 && scaleInOnly {
		a.resetScaleIn()
		a.setErr("")
		dec.Reason = fmt.Sprintf("scale-in budget $%.2f/hr buys no fleet; keeping the current plan", dec.PlanBudget)
		return dec, nil
	}
	if err := a.checkPlan(next); err != nil {
		a.setErr("replan: " + err.Error())
		return dec, fmt.Errorf("autopilot: replan: %w", err)
	}
	// A model with no planning sample at all (cold window, no reference)
	// was invisible to the planner; carry its current allocation forward
	// instead of reading the absence as "tear its fleet down to zero".
	for _, name := range a.names {
		if _, ok := samples[name]; ok {
			continue
		}
		if cur := current[name]; cur.Total() > 0 && next[name].Total() == 0 {
			next[name] = cur.Clone()
		}
	}
	// Rebase every warm model's detector on the sample just planned from,
	// whether or not the plan changed — the trigger has been answered.
	rebased := make(map[string]*DriftDetector, len(samples))
	for _, name := range a.names {
		if !dec.Models[name].Checked {
			continue
		}
		det, err := NewDriftDetector(samples[name], DefaultDriftBins)
		if err != nil {
			return dec, err
		}
		rebased[name] = det
	}
	reason := fmt.Sprintf("%s trigger (util %.2f, %s)", dec.triggerNames(), util, a.modelSummary(dec))

	changed := !next.Equal(current)
	if changed {
		if a.lastActuateMS, err = a.apply("actuate", next); err != nil {
			return dec, err
		}
	} else {
		reason += ", plan unchanged"
	}
	a.mu.Lock()
	for name, det := range rebased {
		a.states[name].detector = det
	}
	a.lastChange = now
	a.lastReason = reason
	a.lastErr = ""
	a.mu.Unlock()
	// The trigger has been answered and the latency windows measured the
	// old fleet: without a fresh SLO view the old breach samples would
	// re-fire it every cooldown.
	a.resetLatencyWindows()
	a.resetScaleIn()
	if !changed {
		dec.Reason = "trigger fired but the plan is unchanged"
		return dec, nil
	}
	dec.Replanned = true
	dec.To = next.Clone()
	dec.Reason = reason
	return dec, nil
}

// modelSummary renders the per-model drift/tail readings for reasons.
func (a *Autopilot) modelSummary(dec Decision) string {
	var parts []string
	for _, name := range a.names {
		md := dec.Models[name]
		if !md.Checked {
			parts = append(parts, fmt.Sprintf("%s cold", name))
			continue
		}
		parts = append(parts, fmt.Sprintf("%s drift %.3f p%g %.1fms", name, md.Drift, a.opts.SLOPercentile, md.TailMS))
	}
	return strings.Join(parts, "; ")
}

// scaleInTick advances the consecutive-under-utilization counter and
// reports whether the scale-in trigger is armed. Readings inside the
// hysteresis band above the floor neither arm nor reset.
func (a *Autopilot) scaleInTick(util float64, valid bool) bool {
	if a.opts.ScaleInFloor <= 0 || !valid {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	switch {
	case util < a.opts.ScaleInFloor:
		a.lowTicks++
	case util > a.opts.ScaleInFloor+a.opts.ScaleInHysteresis:
		a.lowTicks = 0
	}
	return a.lowTicks >= a.opts.ScaleInTicks
}

// resetScaleIn clears the under-utilization counter after a replan (or an
// answered trigger): the resized fleet starts a fresh observation run.
func (a *Autopilot) resetScaleIn() {
	a.mu.Lock()
	a.lowTicks = 0
	a.mu.Unlock()
}

// resetLatencyWindows restarts every model's SLO view.
func (a *Autopilot) resetLatencyWindows() {
	a.latMu.Lock()
	for _, name := range a.names {
		a.states[name].latency.Reset()
	}
	a.latMu.Unlock()
}

// cheapestPrice returns the pool's lowest hourly price — the smallest
// budget that can still buy capacity.
func (a *Autopilot) cheapestPrice() float64 {
	min := math.Inf(1)
	for _, t := range a.wiring.Pool {
		if t.PricePerHour < min {
			min = t.PricePerHour
		}
	}
	return min
}

func (a *Autopilot) setErr(msg string) {
	a.mu.Lock()
	a.lastErr = msg
	a.mu.Unlock()
}

// updateRates refreshes the recent throughput and utilization estimates
// from controller-stats deltas since the previous step. The returned
// utilization is only meaningful when ok is true (a previous step exists).
func (a *Autopilot) updateRates(now time.Time) (float64, bool) {
	stats := a.ctrl.Stats()
	busy := 0.0
	for _, in := range stats.Instances {
		busy += in.BusyMS
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	ok := false
	if !a.lastStepAt.IsZero() {
		wallMS := float64(now.Sub(a.lastStepAt)) / float64(time.Millisecond)
		if wallMS > 0 {
			modelMS := wallMS / a.wiring.TimeScale
			a.recentQPS = float64(stats.Completed-a.lastStepCompleted) / modelMS * 1000
			if n := len(stats.Instances); n > 0 {
				util := (busy - a.lastStepBusyMS) / (modelMS * float64(n))
				if util < 0 {
					util = 0
				}
				a.recentUtilization = util
				ok = true
			}
			for _, name := range a.names {
				st := a.states[name]
				if ms, found := stats.Models[name]; found {
					st.recentQPS = float64(ms.Completed-st.lastCompleted) / modelMS * 1000
					st.lastCompleted = ms.Completed
					// Arrivals (submissions) measure demand even when the
					// fleet cannot keep up. Backpressure-rejected ingress
					// queries never reach Submit but are demand too — an
					// overloaded front-end must not read as "demand equals
					// served throughput" or the demand caps would pin the
					// fleet at its own saturation point. A light EWMA
					// damps interval noise before the planner reads it.
					demand := ms.Submitted - st.lastSubmitted
					st.lastSubmitted = ms.Submitted
					if is, found := stats.Ingress[name]; found {
						demand += is.Rejected - st.lastRejected
						st.lastRejected = is.Rejected
					}
					inst := float64(demand) / modelMS * 1000
					if st.arrivalQPS == 0 {
						st.arrivalQPS = inst
					} else {
						st.arrivalQPS = 0.5*st.arrivalQPS + 0.5*inst
					}
				}
			}
		}
	} else {
		for _, name := range a.names {
			if ms, found := stats.Models[name]; found {
				st := a.states[name]
				st.lastCompleted = ms.Completed
				st.lastSubmitted = ms.Submitted
				if is, found := stats.Ingress[name]; found {
					st.lastRejected = is.Rejected
				}
			}
		}
	}
	a.lastStepAt = now
	a.lastStepCompleted = stats.Completed
	a.lastStepBusyMS = busy
	a.ratesValid = ok
	return a.recentUtilization, ok
}

// actuate reconciles every model's running fleet toward the plan, diffing
// against the controller's observed per-model instance counts rather than
// replaying plan deltas — a partially-failed earlier actuation self-heals
// on the next pass. All additions happen before any removal (no model's
// capacity dips below both states' minimum), and removals drain —
// in-flight queries always finish. Launches and stops go through the
// actuation provider, so the same loop manages in-process servers and
// real kairosd processes.
func (a *Autopilot) actuate(to core.FleetPlan) error {
	for _, name := range a.names {
		cfg := to[name]
		have := a.ctrl.ModelInstanceCounts(name)
		for i, t := range a.wiring.Pool {
			want := 0
			if cfg != nil {
				want = cfg[i]
			}
			for k := have[t.Name]; k < want; k++ {
				addr, err := a.provider.Launch(name, t.Name)
				if err != nil {
					return err
				}
				if _, err := a.ctrl.AddInstance(addr); err != nil {
					a.provider.Stop(addr)
					return err
				}
				a.logf("autopilot: added %s for %s at %s", t.Name, name, addr)
			}
		}
	}
	for _, name := range a.names {
		cfg := to[name]
		have := a.ctrl.ModelInstanceCounts(name)
		for i, t := range a.wiring.Pool {
			want := 0
			if cfg != nil {
				want = cfg[i]
			}
			for k := want; k < have[t.Name]; k++ {
				addr, err := a.ctrl.RemoveInstance(name, t.Name)
				if err != nil {
					return err
				}
				if err := a.provider.Stop(addr); err != nil {
					return err
				}
				a.logf("autopilot: drained and removed %s for %s at %s", t.Name, name, addr)
			}
		}
	}
	return nil
}

// Close stops the control loop and the admin endpoint, shuts the ingress
// front-end (no new external queries; in-flight ones finish), then closes
// the controller and the provider. In-flight queries submitted directly
// to the controller fail as on Controller.Close; such submit loads should
// finish before closing.
func (a *Autopilot) Close() {
	a.closeOnce.Do(func() {
		close(a.stop)
		a.loopOnce.Do(func() { close(a.loopDone) }) // loop never started
		<-a.loopDone
		a.adminMu.Lock()
		a.adminClosed = true
		if a.admin != nil {
			a.admin.close()
			a.admin = nil
		}
		a.adminMu.Unlock()
		if a.ingress != nil {
			a.ingress.Close()
		}
		a.ctrl.Close()
		a.provider.Close()
	})
}
