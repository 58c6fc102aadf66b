package kairos

import (
	"fmt"
	"math"
)

// Option configures an Engine under construction. Options are applied in
// order by New; each may reject its argument, and New validates the
// assembled engine as a whole afterwards.
type Option func(*Engine) error

// WithPool sets the heterogeneous instance pool (required).
func WithPool(pool Pool) Option {
	return func(e *Engine) error {
		if len(pool) == 0 {
			return fmt.Errorf("kairos: WithPool needs a non-empty pool")
		}
		e.pool = pool
		return nil
	}
}

// WithModel sets the served model set, all under the engine's one shared
// budget: PlanFleet splits the budget across them by marginal
// throughput-per-dollar, and the live path (Connect, Autopilot) partitions
// instances and queries per model. New checks that every model is named,
// has a positive QoS target and appears once.
func WithModel(models ...Model) Option {
	return func(e *Engine) error {
		if len(models) == 0 {
			return fmt.Errorf("kairos: WithModel needs at least one model")
		}
		e.models = append([]Model(nil), models...)
		return nil
	}
}

// WithModels is WithModel over catalog models resolved by name (see
// Models).
func WithModels(names ...string) Option {
	return func(e *Engine) error {
		models := make([]Model, len(names))
		for i, name := range names {
			m, err := ModelByName(name)
			if err != nil {
				return err
			}
			models[i] = m
		}
		return WithModel(models...)(e)
	}
}

// WithBudget sets the cost budget in $/hr consumed by Plan, Rank,
// PlanFleet and Autopilot. Engines that only serve or evaluate fixed
// configurations may leave it unset.
func WithBudget(perHour float64) Option {
	return func(e *Engine) error {
		if !(perHour > 0) || math.IsInf(perHour, 1) {
			return fmt.Errorf("kairos: budget must be positive and finite (got %v)", perHour)
		}
		e.budget = perHour
		return nil
	}
}

// WithPolicy selects the query-distribution policy by registry name (see
// Policies). The default is "kairos+warm".
func WithPolicy(name string) Option {
	return func(e *Engine) error {
		if !HasPolicy(name) {
			return fmt.Errorf("kairos: unknown policy %q (have %v)", name, Policies())
		}
		e.policy = name
		return nil
	}
}

// WithBatchSamples pins the batch-size snapshot the planner consumes for
// every served model, in place of a draw from the trace: a window of live
// traffic (the autopilot's, or any other record) or a synthetic sample for
// offline planning.
func WithBatchSamples(samples []int) Option {
	return func(e *Engine) error {
		if len(samples) == 0 {
			return fmt.Errorf("kairos: WithBatchSamples needs a non-empty sample")
		}
		e.samples = samples
		return nil
	}
}

// WithTrace sets the batch-size distribution driving simulations and the
// fallback planning snapshot; the default is the trace-like log-normal mix.
func WithTrace(dist BatchDistribution) Option {
	return func(e *Engine) error {
		if dist == nil {
			return fmt.Errorf("kairos: WithTrace needs a non-nil distribution")
		}
		e.batches = dist
		return nil
	}
}

// WithSeed fixes the engine's random streams (planning snapshots,
// simulation arrivals). The default is 42.
func WithSeed(seed int64) Option {
	return func(e *Engine) error {
		e.seed = seed
		return nil
	}
}

// WithProbeQueries sizes each throughput probe run of
// AllowableThroughput; 0 keeps the finder's default (4000). Lower values
// trade precision for speed (see ExperimentScale).
func WithProbeQueries(n int) Option {
	return func(e *Engine) error {
		if n < 0 {
			return fmt.Errorf("kairos: probe queries must be >= 0 (got %d)", n)
		}
		e.probeQueries = n
		return nil
	}
}

// WithPrecisionFrac sets the relative precision terminating the
// allowable-throughput bisection; 0 keeps the finder's default (2%).
func WithPrecisionFrac(frac float64) Option {
	return func(e *Engine) error {
		if frac < 0 || frac >= 1 {
			return fmt.Errorf("kairos: precision fraction %v outside [0,1)", frac)
		}
		e.precisionFrac = frac
		return nil
	}
}
