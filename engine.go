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
// engine's trace when WithBatchSamples is absent (the paper tracks ~10000
// recent queries).
const defaultPlanSamples = 10000

// Engine is the managed entry point to the reproduction: one object that
// owns the deployment context (pool, served model set, shared budget) and
// the selected distribution policy, and exposes the paper's full plan ->
// serve -> evaluate -> adapt lifecycle as methods. An engine plans from a
// fixed batch-size snapshot (WithBatchSamples, or a draw from its trace).
// Adapting (Sec. 5.2, Fig. 12) is re-running the one-shot planner on the
// query monitor's recent window: deploy through Autopilot, which keeps that
// window per model and replans on its own triggers, or build a new engine
// from the new window.
//
// Build it with New and functional options:
//
//	engine, err := kairos.New(
//		kairos.WithPool(kairos.DefaultPool()),
//		kairos.WithModels("RM2"),
//		kairos.WithBudget(2.5),
//		kairos.WithPolicy("kairos+warm"),
//	)
//
// An engine serves one model or several under one shared budget (WithModel
// / WithModels). The single-model planning and simulation methods (Plan,
// Rank, Evaluate, ...) require a single-model engine; multi-model engines
// plan with PlanFleet and serve through Connect or Autopilot, which
// partition the live path per model.
//
// Policies are resolved by name through the registry (see RegisterPolicy
// and Policies), so callers select them as data — e.g. from a -policy
// command-line flag — instead of hard-wiring constructors.
type Engine struct {
	pool    Pool
	models  []Model
	budget  float64
	policy  string
	batches BatchDistribution
	samples []int
	seed    int64

	probeQueries  int
	precisionFrac float64

	// est caches the primary model's estimator: its planning snapshot is
	// fixed for the engine's life.
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
		return nil, fmt.Errorf("kairos: engine needs a model (use WithModel or WithModels)")
	}
	seen := make(map[string]bool, len(e.models))
	for _, m := range e.models {
		switch {
		case m.Name == "":
			return nil, fmt.Errorf("kairos: every served model needs a name")
		case m.QoS <= 0:
			return nil, fmt.Errorf("kairos: model %q needs a positive QoS target (got %v)", m.Name, m.QoS)
		case seen[m.Name]:
			return nil, fmt.Errorf("kairos: model %q is served twice", m.Name)
		}
		seen[m.Name] = true
	}
	return e, nil
}

// Pool returns the engine's instance pool.
func (e *Engine) Pool() Pool { return e.pool }

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

// Factory returns a DistributorFactory building fresh instances of the
// engine's policy per evaluation run, so stateful policies (online
// learners) never leak knowledge across probes. The factory panics if the
// policy factory errors — or if the engine serves several models, where
// "the model" is ambiguous; Evaluate and AllowableThroughput probe one
// construction first and surface the error instead.
func (e *Engine) Factory() DistributorFactory {
	m, err := e.primary()
	if err != nil {
		return func() Distributor { panic(err) }
	}
	ctx := PolicyContext{Pool: e.pool, Model: m}
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
// reject the evaluation context, which New cannot see because it never
// invokes the factory.
func (e *Engine) evalFactory() (DistributorFactory, error) {
	if _, err := NewPolicy(e.policy, PolicyContext{Pool: e.pool, Model: e.models[0]}); err != nil {
		return nil, err
	}
	return e.Factory(), nil
}

// planningSamples resolves the batch-size snapshot the planner consumes for
// the i-th served model: the WithBatchSamples pin, else a synthetic draw
// from the engine's trace (decorrelated across models).
func (e *Engine) planningSamples(i int) []int {
	if e.samples != nil {
		return e.samples
	}
	rng := rand.New(rand.NewSource(e.seed + int64(i)))
	out := make([]int, defaultPlanSamples)
	for i := range out {
		out[i] = e.batches.Sample(rng)
	}
	return out
}

// estimator builds the primary model's throughput upper-bound estimator
// (Sec. 5.2) once.
func (e *Engine) estimator() (*core.Estimator, error) {
	m, err := e.primary()
	if err != nil {
		return nil, err
	}
	if e.est == nil {
		est, err := core.NewEstimator(e.pool, m, e.planningSamples(0))
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

// Plan returns the one-shot configuration for the engine's budget from its
// batch-size snapshot — no online exploration (Sec. 5.2). The similarity
// pick runs over the configurations that serve the model at all (a
// positive upper bound), and Plan errors when the budget affords none,
// where PlanFleet reports the model starved.
// Single-model engines only; see PlanFleet.
func (e *Engine) Plan() (Config, error) {
	if err := e.needBudget(); err != nil {
		return nil, err
	}
	est, err := e.estimator()
	if err != nil {
		return nil, err
	}
	ranked := est.Rank(e.budget)
	serving := 0 // Rank sorts by descending bound
	for serving < len(ranked) && ranked[serving].UpperBound > 0 {
		serving++
	}
	if serving == 0 {
		return nil, fmt.Errorf("kairos: budget $%v/hr buys no configuration that serves %s", e.budget, e.models[0].Name)
	}
	return core.SelectOneShot(ranked[:serving]), nil
}

// PlanFleet splits the engine's shared budget across every served model by
// greedy marginal throughput-per-dollar over each model's ranked
// configurations, planning each model from its batch-size snapshot (the
// pinned samples, or a draw from the trace). It is the multi-model
// counterpart of Plan and also works on a single-model engine; for
// per-model samples, call PlanFleetFor with explicit demands.
func (e *Engine) PlanFleet() (FleetPlan, error) {
	if err := e.needBudget(); err != nil {
		return nil, err
	}
	demands := make([]core.ModelDemand, len(e.models))
	for i, m := range e.models {
		demands[i] = core.ModelDemand{Model: m, Samples: e.planningSamples(i)}
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
	for _, n := range cfg {
		if n < 0 {
			return fmt.Errorf("kairos: negative instance count in config %v", cfg)
		}
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
