package kairos

import (
	"fmt"
	"time"

	"kairos/internal/autopilot"
	"kairos/internal/core"
	"kairos/internal/ingress"
)

// Re-exported autopilot types: the closed-loop control plane over the real
// network serving path (see internal/autopilot).
type (
	// Autopilot runs the monitor -> detect -> replan -> actuate loop over
	// a live multi-model controller and its actuation provider.
	// Engine.Autopilot builds one; Start launches the loop; Close tears
	// the whole serving path down.
	Autopilot = autopilot.Autopilot
	// Provider is the pluggable actuation driver: how instance servers
	// are launched and stopped. The built-ins are Fleet (in-process) and
	// ExecFleet (real kairosd processes); implement it to provision
	// instances any other way (SSH, a cloud API, ...).
	Provider = autopilot.Provider
	// Fleet is the in-process actuation provider: instance servers on
	// loopback TCP inside the controlling process.
	Fleet = autopilot.Fleet
	// ExecFleet is the exec actuation provider: it spawns, banner
	// health-checks, and gracefully SIGTERMs real kairosd processes.
	ExecFleet = autopilot.ExecFleet
	// AutopilotDecisionEvent is one entry of the autopilot's bounded
	// decision journal (Autopilot.Decisions, admin /decisionz).
	AutopilotDecisionEvent = autopilot.DecisionEvent
	// IngressServer is the external query front-end (HTTP JSON + binary
	// TCP) feeding a controller; see Engine.Autopilot's WithIngress.
	IngressServer = ingress.Server
	// IngressOptions describe that front door: addresses, queue bound,
	// bearer tokens, per-client rate limit (see WithIngress).
	IngressOptions = ingress.Options
	// IngressClient is the binary-TCP ingress client (see DialIngress).
	IngressClient = ingress.Client
	// IngressSubmitOptions are IngressClient.SubmitOpts' per-query
	// extras: a session-affinity key and a deadline.
	IngressSubmitOptions = ingress.SubmitOptions
	// AutopilotStatus is the /metrics view of the control plane.
	AutopilotStatus = autopilot.Status
	// AutopilotModelStatus is one model's control section within
	// AutopilotStatus.
	AutopilotModelStatus = autopilot.ModelStatus
	// AutopilotDecision reports one control-loop iteration (see
	// Autopilot.Step).
	AutopilotDecision = autopilot.Decision
	// AutopilotModelDecision is one model's trigger evaluation within a
	// Decision.
	AutopilotModelDecision = autopilot.ModelDecision
	// PlanStatus is the /plan view: the fleet plan in force and the
	// replan history heads.
	PlanStatus = autopilot.PlanStatus
	// ModelPlanStatus is one model's slice of the fleet plan.
	ModelPlanStatus = autopilot.ModelPlanStatus
	// FleetPlan is a multi-model deployment: one configuration per model,
	// paid from one shared budget (see Engine.PlanFleet).
	FleetPlan = core.FleetPlan
	// ModelDemand couples a model with the batch sample (and optionally
	// the observed arrival rate) describing its recent traffic — the
	// per-model input to PlanFleetFor.
	ModelDemand = core.ModelDemand
	// FleetPlanner is the incremental shared-budget allocator: it keeps
	// the configuration enumeration and each model's Pareto frontier
	// cached across replans, rebuilding only for models whose sample
	// window actually moved, so steady-state fleet replans are nearly
	// allocation-free. PlanFleetFor answers one-shot questions; hold a
	// FleetPlanner when planning repeatedly over drifting windows (see
	// NewFleetPlanner).
	FleetPlanner = core.FleetPlanner
)

// IngressQueueFullMsg is the exact error string a backpressure rejection
// carries on both ingress transports (HTTP 429 body, binary NACK reply).
const IngressQueueFullMsg = ingress.QueueFullMsg

// IngressRateLimitedMsg is the exact error string an over-budget client
// receives from a rate-limited front door (IngressOptions.RateLimit) —
// distinct from IngressQueueFullMsg so clients can tell their own
// overage from system overload.
const IngressRateLimitedMsg = ingress.RateLimitedMsg

// IngressUnauthorizedMsg is the exact error string an unauthenticated
// submission receives from a token-gated front door
// (IngressOptions.AuthTokens).
const IngressUnauthorizedMsg = ingress.UnauthorizedMsg

// PlanFleetFor runs the shared-budget allocator directly over explicit
// per-model demands — the library entry point for callers that manage
// their own samples instead of an engine's monitors. Demands carrying an
// ArrivalQPS are demand-capped (see core.PlanFleet).
func PlanFleetFor(pool Pool, demands []ModelDemand, budget float64) (FleetPlan, error) {
	return core.PlanFleet(pool, demands, budget)
}

// NewFleetPlanner builds an incremental fleet planner over the pool,
// pre-enumerating configurations up to enumBudget (later Plan calls at or
// below it reuse the enumeration; a larger budget re-enumerates). Feed it
// demands with SetDemands (or ReplanModel for a single moved window),
// then Plan; frontiers for unmoved sample windows are served from cache.
// A FleetPlanner is not safe for concurrent use.
func NewFleetPlanner(pool Pool, enumBudget float64) (*FleetPlanner, error) {
	return core.NewFleetPlanner(pool, enumBudget)
}

// NewFleet builds the in-process actuation provider serving the given
// models at one time scale — what Engine.Autopilot uses when no
// WithProvider option is given.
func NewFleet(timeScale float64, ms ...Model) *Fleet {
	return autopilot.NewFleet(timeScale, ms...)
}

// NewExecFleet builds the exec actuation provider spawning bin (a kairosd
// binary) at the given time scale. When models are listed, launches for
// any other model are rejected up front.
func NewExecFleet(bin string, timeScale float64, models ...string) *ExecFleet {
	return autopilot.NewExecFleet(bin, timeScale, models...)
}

// DialIngress connects a binary-TCP client to an ingress front-end.
func DialIngress(addr string) (*IngressClient, error) {
	return ingress.Dial(addr)
}

// DialIngressAuth is DialIngress presenting a bearer token to a
// token-gated front door (IngressOptions.AuthTokens).
func DialIngressAuth(addr, token string) (*IngressClient, error) {
	return ingress.DialWith(addr, ingress.DialOptions{Token: token})
}

// AutopilotOptions tune Engine.Autopilot's control loop. Zero values
// defer to the autopilot defaults (see internal/autopilot.Options); the
// drift threshold additionally falls back to the engine's WithReplan
// threshold.
type AutopilotOptions struct {
	// Interval is the control-loop period (wall clock).
	Interval time.Duration
	// DriftThreshold is the total-variation trigger in (0,1).
	DriftThreshold float64
	// Window sizes the per-model live batch-mix and latency windows.
	Window int
	// MinObservations gates a model's triggers until its window is this
	// warm.
	MinObservations int
	// SLOPercentile / SLOLatencyMS state the latency objective; zero uses
	// p99 against each model's own QoS target.
	SLOPercentile float64
	SLOLatencyMS  float64
	// Cooldown is the minimum wall-clock gap between replans.
	Cooldown time.Duration
	// ScaleInFloor arms the scale-in trigger: sustained fleet utilization
	// below the floor replans under a shrunk budget to shed cost.
	// 0 disables scale-in.
	ScaleInFloor float64
	// ScaleInTicks is the consecutive under-utilized control ticks that
	// fire scale-in (default 5).
	ScaleInTicks int
	// ScaleInHysteresis is the utilization band above the floor that
	// resets the tick counter (default 0.05).
	ScaleInHysteresis float64
	// DemandHeadroom tunes demand-aware replanning: every replan caps each
	// model's planned throughput at its observed arrival rate times
	// (1 + DemandHeadroom), leaving surplus budget unspent instead of
	// buying capacity no model needs (see core.PlanFleet). Demand capping
	// is on by default: 0 uses the default headroom
	// (core.DefaultHeadroom); a negative value disables capping, so
	// replans maximize throughput under the full budget.
	DemandHeadroom float64
	// OnDemandFloor arms risk-bounded spot planning, as a fraction of each
	// model's observed arrival rate: in a pool carrying spot capacity
	// (Pool.WithSpotMarket), every latency-critical model's allocation
	// must keep an on-demand-only throughput upper bound of at least
	// OnDemandFloor times its arrival rate, so losing every spot instance
	// at once still leaves that fraction of demand servable (see
	// core.ModelDemand.OnDemandFloor). 0 disables the floor; it is also
	// inert in pools without spot capacity.
	OnDemandFloor float64
	// Logf, when set, receives one line per control decision.
	Logf func(format string, args ...any)
}

// AutopilotOption customizes the serving topology Engine.Autopilot
// assembles — the pluggable edges beyond the control-loop tuning in
// AutopilotOptions.
type AutopilotOption func(*autopilotConfig) error

type autopilotConfig struct {
	provider autopilot.Provider
	ingress  *IngressOptions // nil: no front door
}

// WithProvider actuates through p instead of the default in-process
// fleet — e.g. NewExecFleet to run the plan as real kairosd processes.
// The autopilot takes ownership: Close stops the provider's instances.
func WithProvider(p Provider) AutopilotOption {
	return func(c *autopilotConfig) error {
		if p == nil {
			return fmt.Errorf("kairos: WithProvider needs a provider")
		}
		c.provider = p
		return nil
	}
}

// WithIngress opens the external query front door over the managed
// controller: an HTTP JSON endpoint and/or a binary-TCP endpoint (at least
// one address; "127.0.0.1:0" binds an ephemeral port), a per-model bound
// on admitted-but-unfinished queries, and optionally a bearer-token list
// and per-client rate limit — see IngressOptions for each field. External
// queries route per model, push back on overload (HTTP 429 / binary NACK
// with IngressQueueFullMsg, IngressRateLimitedMsg or
// IngressUnauthorizedMsg), and their per-model counters appear in
// Controller.Stats() and the admin /metrics. The options are checked here,
// before anything is launched; a nil Logf inherits AutopilotOptions.Logf.
func WithIngress(opts IngressOptions) AutopilotOption {
	return func(c *autopilotConfig) error {
		if err := opts.Validate(); err != nil {
			return err
		}
		door := opts // the option may be applied to more than one autopilot
		c.ingress = &door
		return nil
	}
}

// Autopilot deploys the engine as a self-managing serving system: it plans
// the initial fleet (one configuration per served model, split from the
// shared budget by marginal throughput-per-dollar), launches the fleet
// through the actuation provider (in-process instance servers at
// timeScale by default; WithProvider plugs in exec'd kairosd processes or
// anything else), connects the engine's policy as the central controller
// — one scheduler group per model — and arms the closed monitor ->
// detect -> replan -> actuate loop around them. Every replan invokes the
// engine's shared-budget allocator with the live per-model windows (and,
// with DemandHeadroom set, the observed arrival rates) as its inputs, so
// a trigger fired by one model can move budget to or from the others; the
// scale-in trigger replans under a shrunk budget when the fleet is
// under-utilized. WithIngress additionally serves external traffic
// through an HTTP/TCP front-end whose lifecycle the autopilot owns.
//
// The returned autopilot is idle: call Start to launch the control loop
// (and optionally StartAdmin for the HTTP endpoint), submit load through
// Controller (per model) or the ingress endpoints, and Close to tear down
// loop, ingress, controller, and provider.
func (e *Engine) Autopilot(timeScale float64, opts AutopilotOptions, extra ...AutopilotOption) (*Autopilot, error) {
	if err := e.needBudget(); err != nil {
		return nil, err
	}
	var cfg autopilotConfig
	for _, o := range extra {
		if o == nil {
			return nil, fmt.Errorf("kairos: nil autopilot option")
		}
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	if opts.OnDemandFloor < 0 {
		return nil, fmt.Errorf("kairos: negative on-demand floor %v", opts.OnDemandFloor)
	}
	// Demand capping defaults on; a negative headroom opts out.
	headroom := opts.DemandHeadroom
	if headroom == 0 {
		headroom = core.DefaultHeadroom
	}
	fullBudget := e.budget
	// One planner lives for the autopilot's whole lifetime: replans hand it
	// the fresh windows and it reuses every per-model frontier whose window
	// did not move, so steady-state replans skip enumeration and frontier
	// construction entirely (see core.FleetPlanner). Safe without extra
	// locking — the autopilot serializes planning under its step mutex.
	planner, err := core.NewFleetPlanner(e.pool, fullBudget)
	if err != nil {
		return nil, err
	}
	demandFor := func(m Model, s []int, arrival float64) core.ModelDemand {
		d := core.ModelDemand{Model: m, Samples: s}
		if headroom > 0 {
			d.ArrivalQPS = arrival
			d.Headroom = headroom
			// The on-demand floor derives from the same observed demand the
			// cap does, so it rides the same arrival rate (and is inert
			// while demand capping is disabled or the rate is unknown).
			d.OnDemandFloor = opts.OnDemandFloor
		}
		return d
	}
	plan := func(samples map[string][]int, arrivals map[string]float64, budget float64) (core.FleetPlan, error) {
		if budget <= 0 {
			budget = fullBudget
		}
		demands := make([]core.ModelDemand, 0, len(e.models))
		for _, m := range e.models {
			if s := samples[m.Name]; len(s) > 0 {
				demands = append(demands, demandFor(m, s, arrivals[m.Name]))
			}
		}
		if len(demands) == 0 {
			return nil, fmt.Errorf("kairos: no model has a planning sample")
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
	replanModel := func(model string, samples []int, arrivalQPS float64, budget float64) (core.FleetPlan, error) {
		if budget <= 0 {
			budget = fullBudget
		}
		m := e.modelByName(model)
		if m == nil {
			return nil, fmt.Errorf("kairos: replan for unknown model %q", model)
		}
		got, err := planner.ReplanModel(demandFor(*m, samples, arrivalQPS), budget)
		if err != nil {
			return nil, err
		}
		return got.Clone(), nil
	}
	references := make(map[string][]int, len(e.models))
	for _, m := range e.models {
		references[m.Name] = e.planningSamplesFor(m.Name)
	}
	initial, err := plan(references, nil, 0)
	if err != nil {
		return nil, err
	}
	if initial.Total() == 0 {
		return nil, fmt.Errorf("kairos: budget %v buys no configuration", e.budget)
	}
	drift := opts.DriftThreshold
	if drift == 0 {
		drift = e.replanThreshold
	}
	provider := cfg.provider
	if provider == nil {
		provider = autopilot.NewFleet(timeScale, e.models...)
	} else if ts, ok := provider.(interface{ TimeScale() float64 }); ok {
		// A provider running instances at a different time dilation than
		// the controller skews every latency, rate, and utilization
		// reading — catch the mismatch before anything launches.
		eff := timeScale
		if eff <= 0 {
			eff = 1
		}
		if pts := ts.TimeScale(); pts != eff {
			return nil, fmt.Errorf("kairos: provider runs at time scale %v, autopilot at %v", pts, eff)
		}
	}
	addrs, err := autopilot.Deploy(provider, e.pool, initial)
	if err != nil {
		provider.Close()
		return nil, err
	}
	ctrl, err := e.Connect(timeScale, addrs)
	if err != nil {
		provider.Close()
		return nil, err
	}
	if cfg.ingress != nil && cfg.ingress.Logf == nil {
		cfg.ingress.Logf = opts.Logf
	}
	ap, err := autopilot.New(ctrl, provider, initial, autopilot.Options{
		Pool:              e.pool,
		Models:            e.models,
		Plan:              plan,
		ReplanModel:       replanModel,
		TimeScale:         timeScale,
		Ingress:           cfg.ingress,
		Interval:          opts.Interval,
		DriftThreshold:    drift,
		Window:            opts.Window,
		MinObservations:   opts.MinObservations,
		SLOPercentile:     opts.SLOPercentile,
		SLOLatencyMS:      opts.SLOLatencyMS,
		Cooldown:          opts.Cooldown,
		References:        references,
		ScaleInFloor:      opts.ScaleInFloor,
		ScaleInTicks:      opts.ScaleInTicks,
		ScaleInHysteresis: opts.ScaleInHysteresis,
		Logf:              opts.Logf,
	})
	if err != nil {
		ctrl.Close()
		provider.Close()
		return nil, err
	}
	return ap, nil
}
