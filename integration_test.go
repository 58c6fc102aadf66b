package kairos

import (
	"math/rand"
	"testing"
)

// TestAdoptionLifecycle walks the full downstream-user journey through the
// public API alone: observe traffic -> plan -> deploy -> serve -> detect a
// workload shift -> plan again -> redeploy, asserting the paper's value
// proposition at each step.
func TestAdoptionLifecycle(t *testing.T) {
	t.Parallel()
	const budget = 2.5
	pool := DefaultPool()
	model, err := ModelByName("RM2")
	if err != nil {
		t.Fatal(err)
	}

	// 1. Observe production traffic: the query monitor's recent window.
	rng := rand.New(rand.NewSource(99))
	observe := func(mix BatchDistribution) []int {
		window := make([]int, 10000)
		for i := range window {
			window[i] = mix.Sample(rng)
		}
		return window
	}
	planFrom := func(window []int) (*Engine, Config) {
		t.Helper()
		engine, err := New(
			WithPool(pool),
			WithModel(model),
			WithBudget(budget),
			WithBatchSamples(window),
			WithSeed(99),
		)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := engine.Plan()
		if err != nil {
			t.Fatal(err)
		}
		return engine, cfg
	}

	// 2. Plan from that window without any online evaluation.
	engine, cfg := planFrom(observe(DefaultTrace()))
	if !pool.WithinBudget(cfg, budget) {
		t.Fatalf("plan %v busts the budget", cfg)
	}

	// 3. Deploy and measure: the pick must beat budget-scaled homogeneous.
	qps, err := engine.AllowableThroughput(cfg)
	if err != nil {
		t.Fatal(err)
	}
	homQPS, err := engine.AllowableThroughput(pool.Homogeneous(budget))
	if err != nil {
		t.Fatal(err)
	}
	homQPS *= pool.HomogeneousScale(budget)
	if qps < 1.5*homQPS {
		t.Fatalf("planned config %v at %.1f QPS does not clearly beat homogeneous %.1f", cfg, qps, homQPS)
	}

	// 4. The workload shifts; adapting is planning again, by a fresh engine,
	// from the monitor's new window (Sec. 5.2, Fig. 12) — one shot, no
	// exploration.
	shift := Gaussian(550, 150)
	_, next := planFrom(observe(shift))
	if next.Base() <= cfg.Base() {
		t.Fatalf("a large-query shift should add base instances: %v -> %v", cfg, next)
	}

	// 5. The new plan must serve the new mix; the old plan must not.
	probe := func(c Config, rate float64) bool {
		res, err := engine.Evaluate(c, RunOptions{RatePerSec: rate, DurationMS: 20000, WarmupMS: 4000, Batches: shift})
		if err != nil {
			t.Fatal(err)
		}
		return res.MeetsQoS
	}
	if !probe(next, 20) {
		t.Fatalf("fresh plan %v cannot sustain 20 QPS of the new mix", next)
	}
	if probe(cfg, 20) {
		t.Fatalf("stale plan %v unexpectedly sustains the new mix — the shift is not stressing it", cfg)
	}
}
