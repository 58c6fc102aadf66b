package kairos

import "fmt"

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

// WithModel sets the served model (required, unless WithModelName or
// WithModels is used) — the one-element case of WithModels.
func WithModel(model Model) Option {
	return func(e *Engine) error {
		if model.QoS <= 0 {
			return fmt.Errorf("kairos: WithModel needs a model with a positive QoS target (got %v)", model.QoS)
		}
		e.models = []Model{model}
		return nil
	}
}

// WithModelName resolves a catalog model by name (see Models) — the
// one-element case of WithModels.
func WithModelName(name string) Option {
	return func(e *Engine) error {
		model, err := ModelByName(name)
		if err != nil {
			return err
		}
		e.models = []Model{model}
		return nil
	}
}

// WithModels resolves a set of catalog models by name, all served under
// the engine's one shared budget: PlanFleet splits the budget across them
// by marginal throughput-per-dollar, and the live path (Connect,
// Autopilot) partitions instances and queries per model. The first name is
// the engine's primary model. A single name is equivalent to
// WithModelName.
func WithModels(names ...string) Option {
	return func(e *Engine) error {
		if len(names) == 0 {
			return fmt.Errorf("kairos: WithModels needs at least one model name")
		}
		models := make([]Model, len(names))
		seen := make(map[string]bool, len(names))
		for i, name := range names {
			if seen[name] {
				return fmt.Errorf("kairos: WithModels names %q twice", name)
			}
			seen[name] = true
			m, err := ModelByName(name)
			if err != nil {
				return err
			}
			models[i] = m
		}
		e.models = models
		return nil
	}
}

// WithModelSet sets an explicit served model set (non-catalog models), all
// under the shared budget; the first entry is the primary model.
func WithModelSet(models ...Model) Option {
	return func(e *Engine) error {
		if len(models) == 0 {
			return fmt.Errorf("kairos: WithModelSet needs at least one model")
		}
		seen := make(map[string]bool, len(models))
		for _, m := range models {
			if m.QoS <= 0 {
				return fmt.Errorf("kairos: model %q needs a positive QoS target (got %v)", m.Name, m.QoS)
			}
			if m.Name == "" {
				return fmt.Errorf("kairos: WithModelSet needs named models")
			}
			if seen[m.Name] {
				return fmt.Errorf("kairos: WithModelSet names %q twice", m.Name)
			}
			seen[m.Name] = true
		}
		e.models = append([]Model(nil), models...)
		return nil
	}
}

// WithBudget sets the cost budget in $/hr consumed by Plan, Rank,
// PlanFleet and Autopilot. Engines that only serve or evaluate fixed
// configurations may leave it unset.
func WithBudget(perHour float64) Option {
	return func(e *Engine) error {
		if perHour <= 0 {
			return fmt.Errorf("kairos: budget must be positive (got %v)", perHour)
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

// WithMonitor shares an existing query monitor with the engine's primary
// model instead of the fresh default one; useful when traffic is observed
// outside the engine's own distributors.
func WithMonitor(m *Monitor) Option {
	return func(e *Engine) error {
		if m == nil {
			return fmt.Errorf("kairos: WithMonitor needs a non-nil monitor")
		}
		e.sharedMonitor = m
		return nil
	}
}

// WithBatchSamples pins the batch-size snapshot the planner consumes for
// every served model, overriding the engine monitors. Use Monitor.Snapshot
// on live traffic or a synthetic sample for offline planning; per-model
// pins (WithModelSamples) take precedence.
func WithBatchSamples(samples []int) Option {
	return func(e *Engine) error {
		if len(samples) == 0 {
			return fmt.Errorf("kairos: WithBatchSamples needs a non-empty sample")
		}
		e.samples = samples
		return nil
	}
}

// WithModelSamples pins one served model's planning snapshot, so each
// model of a multi-model engine can plan from its own observed mix. The
// name must match a model configured by WithModels (validated by New).
func WithModelSamples(model string, samples []int) Option {
	return func(e *Engine) error {
		if model == "" {
			return fmt.Errorf("kairos: WithModelSamples needs a model name")
		}
		if len(samples) == 0 {
			return fmt.Errorf("kairos: WithModelSamples needs a non-empty sample")
		}
		if e.modelSamples == nil {
			e.modelSamples = make(map[string][]int)
		}
		e.modelSamples[model] = samples
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
