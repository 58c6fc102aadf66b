package kairos

import (
	"fmt"
	"sort"
	"sync"

	"kairos/internal/core"
	"kairos/internal/distributor"
	"kairos/internal/predictor"
	"kairos/internal/sim"
)

// DefaultDRSThreshold is the "drs" policy's routing threshold: batch >
// threshold goes to the base pool. It is the hill-climbing tuner's starting
// point (see distributor.TuneDRSThreshold), which the paper's figures run.
const DefaultDRSThreshold = 150

// PolicyContext is what the engine resolves before asking a policy factory
// for a distributor: the deployment it serves.
type PolicyContext struct {
	// Pool is the ordered set of instance types the distributor serves.
	Pool Pool
	// Model is the served workload (QoS target + latency surface).
	Model Model
}

// validate checks the fields every factory depends on.
func (ctx PolicyContext) validate() error {
	if len(ctx.Pool) == 0 {
		return fmt.Errorf("kairos: policy context needs a non-empty pool")
	}
	if ctx.Model.QoS <= 0 {
		return fmt.Errorf("kairos: policy context needs a model with a positive QoS target (got %v)", ctx.Model.QoS)
	}
	return nil
}

// PolicyFactory builds a fresh distributor for a resolved context. The
// engine calls it once per served model on Connect and once per simulation
// probe, so stateful policies (online learners) start each evaluation from
// a clean slate.
type PolicyFactory func(ctx PolicyContext) (Distributor, error)

var (
	policyMu sync.RWMutex
	policies = map[string]PolicyFactory{}
)

// RegisterPolicy adds a named policy to the registry. It errors on an empty
// name, a nil factory, or a name already taken — downstream code extends
// the registry but never silently replaces a builtin.
func RegisterPolicy(name string, factory PolicyFactory) error {
	if name == "" {
		return fmt.Errorf("kairos: policy name must be non-empty")
	}
	if factory == nil {
		return fmt.Errorf("kairos: policy %q needs a non-nil factory", name)
	}
	policyMu.Lock()
	defer policyMu.Unlock()
	if _, dup := policies[name]; dup {
		return fmt.Errorf("kairos: policy %q already registered", name)
	}
	policies[name] = factory
	return nil
}

// Policies lists the registered policy names in sorted order — the value
// set for a -policy command-line flag.
func Policies() []string {
	policyMu.RLock()
	defer policyMu.RUnlock()
	out := make([]string, 0, len(policies))
	for name := range policies {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// HasPolicy reports whether a policy name resolves.
func HasPolicy(name string) bool {
	policyMu.RLock()
	defer policyMu.RUnlock()
	_, ok := policies[name]
	return ok
}

// NewPolicy resolves a registered policy by name and builds a distributor
// for the context.
func NewPolicy(name string, ctx PolicyContext) (Distributor, error) {
	policyMu.RLock()
	factory, ok := policies[name]
	policyMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("kairos: unknown policy %q (have %v)", name, Policies())
	}
	if err := ctx.validate(); err != nil {
		return nil, err
	}
	return factory(ctx)
}

// mustRegister is the init-time registration path for the builtins.
func mustRegister(name string, factory PolicyFactory) {
	if err := RegisterPolicy(name, factory); err != nil {
		panic(err)
	}
}

// warmedKairos builds the paper's distributor with the latency model
// pre-trained from the calibrated surfaces.
func warmedKairos(ctx PolicyContext) Distributor {
	return core.NewDistributor(core.DistributorOptions{
		QoS:       ctx.Model.QoS,
		BaseType:  ctx.Pool.Base().Name,
		Predictor: core.WarmedPredictor(ctx.Pool, ctx.Model),
	})
}

// baselinePolicyOptions wires the ground-truth latency oracle the paper
// grants the competing schemes, validated once for all baseline factories
// (a degenerate pool with an unnamed base type is caught here instead of
// panicking inside the constructor).
func baselinePolicyOptions(ctx PolicyContext) (distributor.Options, error) {
	opts := distributor.Options{
		QoS:       ctx.Model.QoS,
		BaseType:  ctx.Pool.Base().Name,
		Predictor: predictor.Oracle{Latency: ctx.Model.Latency},
	}
	return opts, opts.Validate()
}

// The builtin policy set: the paper's mechanism cold and warmed, the three
// competing schemes of Sec. 7, and the two naive ablation baselines.
func init() {
	mustRegister("kairos", func(ctx PolicyContext) (Distributor, error) {
		return core.NewDistributor(core.DistributorOptions{
			QoS:      ctx.Model.QoS,
			BaseType: ctx.Pool.Base().Name,
		}), nil
	})
	mustRegister("kairos+warm", func(ctx PolicyContext) (Distributor, error) {
		return warmedKairos(ctx), nil
	})
	mustRegister("ribbon", func(ctx PolicyContext) (Distributor, error) {
		opts, err := baselinePolicyOptions(ctx)
		if err != nil {
			return nil, err
		}
		return distributor.NewRibbon(opts), nil
	})
	mustRegister("drs", func(ctx PolicyContext) (Distributor, error) {
		opts, err := baselinePolicyOptions(ctx)
		if err != nil {
			return nil, err
		}
		return distributor.NewDRS(opts, DefaultDRSThreshold), nil
	})
	mustRegister("clockwork", func(ctx PolicyContext) (Distributor, error) {
		opts, err := baselinePolicyOptions(ctx)
		if err != nil {
			return nil, err
		}
		return distributor.NewClockwork(opts), nil
	})
	mustRegister("fcfs", func(ctx PolicyContext) (Distributor, error) {
		return sim.FCFSAny{}, nil
	})
	mustRegister("least-loaded", func(ctx PolicyContext) (Distributor, error) {
		return &sim.LeastLoaded{}, nil
	})
}
