package kairos

import (
	"fmt"
	"math/rand"

	"kairos/internal/core"
	"kairos/internal/sim"
)

// DefaultPolicy is the policy an engine uses when WithPolicy is absent.
const DefaultPolicy = "kairos+warm"

// defaultPlanSamples sizes the synthetic planning snapshot drawn from the
// engine's trace when neither WithBatchSamples nor a warmed monitor is
// available (the paper tracks ~10000 recent queries).
const defaultPlanSamples = 10000

// minPlanObservations guards the cold-to-warm handoff: a model's monitor
// must hold at least this many samples (10% of the paper's window) before
// its view replaces the synthetic snapshot, so a single early completion
// never collapses planning onto a one-point mix.
const minPlanObservations = 1000

// Engine is the managed entry point to the reproduction: one object that
// owns the deployment context (pool, served model set, shared budget), a
// query monitor per model, and the selected distribution policy, and
// exposes the paper's full plan -> serve -> evaluate -> adapt lifecycle as
// methods. Adapting (Sec. 5.2, Fig. 12) is re-running the one-shot planner
// on the monitor's recent window: call Plan again once traffic has moved
// the monitor, or deploy through Autopilot, which does so on its own
// triggers.
//
// Build it with New and functional options:
//
//	engine, err := kairos.New(
//		kairos.WithPool(kairos.DefaultPool()),
//		kairos.WithModelName("RM2"),
//		kairos.WithBudget(2.5),
//		kairos.WithPolicy("kairos+warm"),
//	)
//
// An engine serves one model (WithModel / WithModelName) or several under
// one shared budget (WithModels). The single-model planning and simulation
// methods (Plan, Rank, Evaluate, ...) require a single-model engine;
// multi-model engines plan with PlanFleet and serve through Connect or
// Autopilot, which partition the live path per model.
//
// Policies are resolved by name through the registry (see RegisterPolicy
// and Policies), so callers select them as data — e.g. from a -policy
// command-line flag — instead of hard-wiring constructors.
type Engine struct {
	pool     Pool
	models   []Model
	budget   float64
	policy   string
	monitors map[string]*Monitor
	// sharedMonitor is the WithMonitor override for the primary model.
	sharedMonitor *Monitor
	batches       BatchDistribution
	samples       []int
	modelSamples  map[string][]int
	seed          int64

	drsThreshold int
	partitions   int

	probeQueries  int
	precisionFrac float64

	// est caches the primary model's estimator while the planning snapshot
	// is deterministic (pinned by WithBatchSamples, or synthesized from the
	// trace while the monitor is still cold); once the monitor has observed
	// traffic it is re-read on every planning call so a drifting mix is
	// never planned from stale data.
	est *core.Estimator
}

// New assembles and validates an engine from functional options.
func New(opts ...Option) (*Engine, error) {
	e := &Engine{
		policy:  DefaultPolicy,
		batches: DefaultTrace(),
		seed:    42,
	}
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("kairos: nil option")
		}
		if err := opt(e); err != nil {
			return nil, err
		}
	}
	if len(e.pool) == 0 {
		return nil, fmt.Errorf("kairos: engine needs a pool (use WithPool)")
	}
	if len(e.models) == 0 {
		return nil, fmt.Errorf("kairos: engine needs a model (use WithModel, WithModelName, or WithModels)")
	}
	for name := range e.modelSamples {
		if e.modelByName(name) == nil {
			return nil, fmt.Errorf("kairos: WithModelSamples names %q, but the engine serves %v", name, e.modelNames())
		}
	}
	e.monitors = make(map[string]*Monitor, len(e.models))
	for _, m := range e.models {
		e.monitors[m.Name] = NewMonitor()
	}
	if e.sharedMonitor != nil {
		e.monitors[e.models[0].Name] = e.sharedMonitor
	}
	return e, nil
}

// Pool returns the engine's instance pool.
func (e *Engine) Pool() Pool { return e.pool }

// Model returns the engine's primary served model (the first of Models).
func (e *Engine) Model() Model { return e.models[0] }

// Models returns the engine's served model set in option order.
func (e *Engine) Models() []Model {
	out := make([]Model, len(e.models))
	copy(out, e.models)
	return out
}

// modelNames lists the served model names in option order.
func (e *Engine) modelNames() []string {
	out := make([]string, len(e.models))
	for i, m := range e.models {
		out[i] = m.Name
	}
	return out
}

// modelByName returns the served model with the given name, or nil.
func (e *Engine) modelByName(name string) *Model {
	for i := range e.models {
		if e.models[i].Name == name {
			return &e.models[i]
		}
	}
	return nil
}

// primary returns the engine's model for the single-model methods,
// erroring on a multi-model engine where "the model" is ambiguous.
func (e *Engine) primary() (Model, error) {
	if len(e.models) != 1 {
		return Model{}, fmt.Errorf("kairos: engine serves %d models (%v); use PlanFleet/Connect/Autopilot, or build a single-model engine",
			len(e.models), e.modelNames())
	}
	return e.models[0], nil
}

// Budget returns the shared cost budget in $/hr (0 when unset).
func (e *Engine) Budget() float64 { return e.budget }

// Policy returns the selected policy's registry name.
func (e *Engine) Policy() string { return e.policy }

// Monitor returns the primary model's query monitor. Distributors built by
// Serve feed it (when the policy supports a monitor), and Plan reads it;
// callers may also warm it directly with Monitor.Observe.
func (e *Engine) Monitor() *Monitor { return e.monitors[e.models[0].Name] }

// MonitorFor returns the named model's query monitor. The live serving
// path (Connect, Autopilot) feeds each model's monitor from that model's
// completions.
func (e *Engine) MonitorFor(model string) (*Monitor, error) {
	m, ok := e.monitors[model]
	if !ok {
		return nil, fmt.Errorf("kairos: engine does not serve model %q (have %v)", model, e.modelNames())
	}
	return m, nil
}

// policyContextFor assembles the registry context for one served model.
func (e *Engine) policyContextFor(m Model, monitor *Monitor) PolicyContext {
	return PolicyContext{
		Pool:         e.pool,
		Model:        m,
		Monitor:      monitor,
		DRSThreshold: e.drsThreshold,
		Partitions:   e.partitions,
	}
}

// Serve builds the configured policy's distributor wired to the engine's
// monitor — the live serving path of a single-model engine. Multi-model
// engines serve through Connect, which builds one distributor per model.
func (e *Engine) Serve() (Distributor, error) {
	m, err := e.primary()
	if err != nil {
		return nil, err
	}
	return NewPolicy(e.policy, e.policyContextFor(m, e.monitors[m.Name]))
}

// Factory returns a DistributorFactory building fresh instances of the
// engine's policy per evaluation run, so stateful policies (online
// learners) never leak knowledge across probes. Evaluation-run policies do
// not feed the engine monitor. The factory panics if the policy factory
// errors — or if the engine serves several models, where "the model" is
// ambiguous; Evaluate and AllowableThroughput probe one construction
// first and surface the error instead.
func (e *Engine) Factory() DistributorFactory {
	m, err := e.primary()
	if err != nil {
		return func() Distributor { panic(err) }
	}
	ctx := e.policyContextFor(m, nil)
	name := e.policy
	return func() Distributor {
		d, err := NewPolicy(name, ctx)
		if err != nil {
			panic(err)
		}
		return d
	}
}

// evalFactory is the error-surfacing Factory used by the evaluation
// methods: it builds one throwaway distributor to catch factories that
// reject the evaluation context (e.g. a downstream policy requiring a
// monitor), which New cannot see because it never invokes the factory.
func (e *Engine) evalFactory() (DistributorFactory, error) {
	if _, err := NewPolicy(e.policy, e.policyContextFor(e.models[0], nil)); err != nil {
		return nil, err
	}
	return e.Factory(), nil
}

// pinnedSamples resolves an explicit batch-sample pin for the model:
// the per-model WithModelSamples pin, else the engine-wide
// WithBatchSamples pin.
func (e *Engine) pinnedSamples(model string) []int {
	if s := e.modelSamples[model]; s != nil {
		return s
	}
	return e.samples
}

// monitorWarmedFor reports whether the model's monitor view should drive
// its planning.
func (e *Engine) monitorWarmedFor(model string) bool {
	return e.pinnedSamples(model) == nil && e.monitors[model].Count() >= minPlanObservations
}

// planningSamplesFor resolves the batch-size snapshot the planner consumes
// for one model: the pinned snapshot, else the warmed monitor's view, else
// a synthetic draw from the engine's trace (decorrelated across models).
func (e *Engine) planningSamplesFor(model string) []int {
	if s := e.pinnedSamples(model); s != nil {
		return s
	}
	if e.monitorWarmedFor(model) {
		return e.monitors[model].Snapshot()
	}
	seed := e.seed
	for i, m := range e.models {
		if m.Name == model {
			seed += int64(i)
			break
		}
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, defaultPlanSamples)
	for i := range out {
		out[i] = e.batches.Sample(rng)
	}
	return out
}

// estimator builds the primary model's throughput upper-bound estimator
// (Sec. 5.2).
func (e *Engine) estimator() (*core.Estimator, error) {
	m, err := e.primary()
	if err != nil {
		return nil, err
	}
	if e.monitorWarmedFor(m.Name) {
		// Monitor-sourced: always plan from the live mix, and drop any
		// cold-start cache built before traffic arrived.
		e.est = nil
		return core.NewEstimator(e.pool, m, e.planningSamplesFor(m.Name), core.EstimatorOptions{})
	}
	// Pinned samples or the deterministic synthetic fallback: cacheable.
	if e.est == nil {
		est, err := core.NewEstimator(e.pool, m, e.planningSamplesFor(m.Name), core.EstimatorOptions{})
		if err != nil {
			return nil, err
		}
		e.est = est
	}
	return e.est, nil
}

// needBudget guards the planning methods.
func (e *Engine) needBudget() error {
	if e.budget <= 0 {
		return fmt.Errorf("kairos: planning needs a budget (use WithBudget)")
	}
	return nil
}

// Plan returns the one-shot configuration for the engine's budget from the
// current batch-size snapshot — no online exploration (Sec. 5.2).
// Single-model engines only; see PlanFleet.
func (e *Engine) Plan() (Config, error) {
	if err := e.needBudget(); err != nil {
		return nil, err
	}
	est, err := e.estimator()
	if err != nil {
		return nil, err
	}
	return est.Plan(e.budget), nil
}

// PlanFleet splits the engine's shared budget across every served model by
// greedy marginal throughput-per-dollar over each model's ranked
// configurations, planning each model from its own batch-size snapshot
// (pinned samples, warmed monitor, or the synthetic trace). It is the
// multi-model counterpart of Plan and also works on a single-model engine.
func (e *Engine) PlanFleet() (FleetPlan, error) {
	if err := e.needBudget(); err != nil {
		return nil, err
	}
	demands := make([]core.ModelDemand, len(e.models))
	for i, m := range e.models {
		demands[i] = core.ModelDemand{Model: m, Samples: e.planningSamplesFor(m.Name)}
	}
	return core.PlanFleet(e.pool, demands, e.budget)
}

// Rank returns every configuration within the engine's budget sorted by
// descending throughput upper bound. Single-model engines only.
func (e *Engine) Rank() ([]RankedConfig, error) {
	if err := e.needBudget(); err != nil {
		return nil, err
	}
	est, err := e.estimator()
	if err != nil {
		return nil, err
	}
	return est.Rank(e.budget), nil
}

// UpperBound estimates the throughput ceiling of one configuration
// (Eqs. 9-15). Single-model engines only.
func (e *Engine) UpperBound(cfg Config) (float64, error) {
	if err := e.validConfig(cfg); err != nil {
		return 0, err
	}
	est, err := e.estimator()
	if err != nil {
		return 0, err
	}
	return est.UpperBound(cfg), nil
}

// PlanPlus runs the Kairos+ pruning search (Algorithm 1) using eval as the
// expensive online measurement. Single-model engines only.
func (e *Engine) PlanPlus(eval func(Config) float64) (PlusResult, error) {
	ranked, err := e.Rank()
	if err != nil {
		return PlusResult{}, err
	}
	return core.KairosPlus(ranked, core.EvalFunc(eval)), nil
}

// validConfig checks a configuration against the engine's pool.
func (e *Engine) validConfig(cfg Config) error {
	if len(cfg) != len(e.pool) {
		return fmt.Errorf("kairos: config %v does not match pool of %d types", cfg, len(e.pool))
	}
	if cfg.Total() == 0 {
		return fmt.Errorf("kairos: empty configuration")
	}
	return nil
}

// spec assembles the simulation spec for a configuration.
func (e *Engine) spec(cfg Config) (sim.ClusterSpec, error) {
	m, err := e.primary()
	if err != nil {
		return sim.ClusterSpec{}, err
	}
	if err := e.validConfig(cfg); err != nil {
		return sim.ClusterSpec{}, err
	}
	return sim.ClusterSpec{Pool: e.pool, Config: cfg, Model: m}, nil
}

// Evaluate simulates one run of cfg under a fresh instance of the engine's
// policy. Zero-valued RunOptions fields fall back to the engine's seed and
// trace. Single-model engines only.
func (e *Engine) Evaluate(cfg Config, opts RunOptions) (Result, error) {
	spec, err := e.spec(cfg)
	if err != nil {
		return Result{}, err
	}
	if opts.Seed == 0 {
		opts.Seed = e.seed
	}
	if opts.Batches == nil {
		opts.Batches = e.batches
	}
	factory, err := e.evalFactory()
	if err != nil {
		return Result{}, err
	}
	return sim.Run(spec, factory(), sim.Options{
		RatePerSec: opts.RatePerSec,
		DurationMS: opts.DurationMS,
		WarmupMS:   opts.WarmupMS,
		Seed:       opts.Seed,
		Batches:    opts.Batches,
	}), nil
}

// AllowableThroughput measures the paper's headline metric for cfg under
// the engine's policy: the maximum arrival rate whose p99 latency stays
// within the model's QoS target. Single-model engines only.
func (e *Engine) AllowableThroughput(cfg Config) (float64, error) {
	spec, err := e.spec(cfg)
	if err != nil {
		return 0, err
	}
	factory, err := e.evalFactory()
	if err != nil {
		return 0, err
	}
	return sim.FindAllowableThroughput(spec, factory, sim.FindOptions{
		ProbeQueries:  e.probeQueries,
		PrecisionFrac: e.precisionFrac,
		Seed:          e.seed,
		Batches:       e.batches,
	}), nil
}

// OracleThroughput evaluates the clairvoyant ORCL reference scheduler on
// cfg (Sec. 7). Single-model engines only.
func (e *Engine) OracleThroughput(cfg Config) (float64, error) {
	spec, err := e.spec(cfg)
	if err != nil {
		return 0, err
	}
	return sim.OracleThroughput(spec, sim.OracleOptions{
		Seed:    e.seed,
		Batches: e.batches,
	}), nil
}
