package kairos

import (
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
	// AutopilotOptions describe an autopilot deployment: the control-loop
	// tuning, the planner's demand headroom and on-demand floor, the
	// actuation Provider (nil: the in-process Fleet) and the optional
	// Ingress front door. It is the one struct internal/autopilot
	// documents, defaults and validates; zero values pick the documented
	// defaults.
	AutopilotOptions = autopilot.Options
	// AutopilotDecisionEvent is one entry of the autopilot's bounded
	// decision journal (Autopilot.Decisions, admin /decisionz).
	AutopilotDecisionEvent = autopilot.DecisionEvent
	// IngressServer is the external query front-end (HTTP JSON + binary
	// TCP) feeding a controller; see AutopilotOptions.Ingress.
	IngressServer = ingress.Server
	// IngressOptions describe that front door: addresses, queue bound,
	// bearer tokens, per-client rate limit.
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
// models at one time scale — what Engine.Autopilot uses when
// AutopilotOptions.Provider is nil.
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

// Autopilot deploys the engine as a self-managing serving system: it plans
// the initial fleet (one configuration per served model, split from the
// shared budget by marginal throughput-per-dollar), launches the fleet
// through opts.Provider (in-process instance servers at timeScale by
// default; NewExecFleet plugs in exec'd kairosd processes, or implement
// Provider), connects the engine's policy as the central controller — one
// scheduler group per model — and arms the closed monitor -> detect ->
// replan -> actuate loop around them. Every replan invokes the
// shared-budget allocator with the live per-model windows (and the observed
// arrival rates, see AutopilotOptions.DemandHeadroom) as its inputs, so a
// trigger fired by one model can move budget to or from the others; the
// scale-in trigger replans under a shrunk budget when the fleet is
// under-utilized. opts.Ingress additionally serves external traffic
// through an HTTP/TCP front-end whose lifecycle the autopilot owns:
// queries route per model and push back on overload (HTTP 429 / binary
// NACK with IngressQueueFullMsg, IngressRateLimitedMsg or
// IngressUnauthorizedMsg). The options are checked before anything is
// launched.
//
// A one-model autopilot picks its configuration by the fleet allocator's
// greedy walk up the model's throughput/cost frontier, where Plan picks by
// the paper's Sec. 5.2 similarity rule; the two may choose different
// configurations for the same budget (DESIGN.md names the deviation).
//
// The returned autopilot is idle: call Start to launch the control loop
// (and optionally StartAdmin for the HTTP endpoint), submit load through
// Controller (per model) or the ingress endpoints, and Close to tear down
// loop, ingress, controller, and provider.
func (e *Engine) Autopilot(timeScale float64, opts AutopilotOptions) (*Autopilot, error) {
	if err := e.needBudget(); err != nil {
		return nil, err
	}
	references := make(map[string][]int, len(e.models))
	for _, m := range e.models {
		references[m.Name] = e.planningSamplesFor(m.Name)
	}
	return autopilot.Launch(autopilot.Wiring{
		Pool:       e.pool,
		Models:     e.models,
		References: references,
		TimeScale:  timeScale,
	}, e.budget, opts, func(addrs []string) (*Controller, error) {
		return e.Connect(timeScale, addrs)
	})
}
