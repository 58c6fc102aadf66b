package search

import (
	"testing"

	"kairos/internal/cloud"
	"kairos/internal/core"
)

// synthetic landscape: a smooth unimodal function over configs with known
// argmax, standing in for the expensive throughput evaluator.
func landscape(peak cloud.Config) core.EvalFunc {
	return func(c cloud.Config) float64 {
		return 1000 - c.SquaredDistance(peak)*7
	}
}

func testSpace(t *testing.T) ([]cloud.Config, cloud.Pool, float64) {
	t.Helper()
	pool := cloud.ThreeTypePool()
	budget := 2.5
	configs := pool.Enumerate(budget)
	if len(configs) < 100 {
		t.Fatalf("space too small: %d", len(configs))
	}
	return configs, pool, budget
}

func TestSessionMemoization(t *testing.T) {
	calls := 0
	s := core.NewSession(func(cloud.Config) float64 { calls++; return 5 }, 0, 0, false)
	c := cloud.Config{1, 2, 3}
	s.Measure(c)
	s.Measure(c)
	if calls != 1 {
		t.Fatalf("eval called %d times, want 1 (memoized)", calls)
	}
	if s.Result().Evaluations != 1 {
		t.Fatalf("evaluations = %d", s.Result().Evaluations)
	}
}

func TestSessionTargetStops(t *testing.T) {
	s := core.NewSession(landscape(cloud.Config{2, 1, 3}), 1000, 0, false)
	s.Measure(cloud.Config{0, 0, 1}) // far from peak
	if s.Done() {
		t.Fatal("should not stop before target")
	}
	s.Measure(cloud.Config{2, 1, 3}) // the peak: value 1000 >= target
	if !s.Done() || !s.Result().ReachedTarget {
		t.Fatal("target hit must stop the session")
	}
}

func TestSessionMaxEvals(t *testing.T) {
	s := core.NewSession(landscape(cloud.Config{1, 1, 1}), 0, 2, false)
	s.Measure(cloud.Config{1, 0, 0})
	s.Measure(cloud.Config{0, 1, 0})
	if !s.Done() {
		t.Fatal("budget exhausted must stop")
	}
	if got := s.Measure(cloud.Config{0, 0, 1}); got != 0 {
		t.Fatalf("out-of-budget Measure returned %v, want 0", got)
	}
	if s.Result().Evaluations != 2 {
		t.Fatalf("evaluations = %d", s.Result().Evaluations)
	}
}

func TestSessionPruning(t *testing.T) {
	s := core.NewSession(landscape(cloud.Config{2, 2, 2}), 0, 0, true)
	s.Measure(cloud.Config{2, 2, 2})
	if !s.Prunable(cloud.Config{1, 2, 2}) {
		t.Fatal("sub-config of an evaluated config must be prunable")
	}
	if s.Prunable(cloud.Config{3, 0, 0}) {
		t.Fatal("incomparable config must not be prunable")
	}
	off := core.NewSession(landscape(cloud.Config{2, 2, 2}), 0, 0, false)
	off.Measure(cloud.Config{2, 2, 2})
	if off.Prunable(cloud.Config{1, 2, 2}) {
		t.Fatal("pruning disabled must never prune")
	}
}

func TestNewSessionPanicsOnNilEval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	core.NewSession(nil, 0, 0, false)
}

func TestRandomReachesTargetEventually(t *testing.T) {
	configs, _, _ := testSpace(t)
	peak := cloud.Config{2, 0, 4}
	s := core.NewSession(landscape(peak), 1000, 0, false)
	res := Random(s, configs, 7)
	if !res.ReachedTarget {
		t.Fatal("random over the whole space must hit the target")
	}
	if !res.Best.Equal(peak) {
		t.Fatalf("best = %v, want %v", res.Best, peak)
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	configs, _, _ := testSpace(t)
	mk := func() core.SearchResult {
		s := core.NewSession(landscape(cloud.Config{1, 2, 1}), 1000, 0, false)
		return Random(s, configs, 11)
	}
	a, b := mk(), mk()
	if a.Evaluations != b.Evaluations || !a.Best.Equal(b.Best) {
		t.Fatal("random search not deterministic per seed")
	}
}

func TestRandomPruningSavesEvaluations(t *testing.T) {
	configs, _, _ := testSpace(t)
	peak := cloud.Config{0, 0, 1} // tiny config: nearly everything dominated
	withPrune := Random(core.NewSession(landscape(peak), 0, 0, true), configs, 13)
	without := Random(core.NewSession(landscape(peak), 0, 0, false), configs, 13)
	if withPrune.Evaluations >= without.Evaluations {
		t.Fatalf("pruning did not save evaluations: %d vs %d",
			withPrune.Evaluations, without.Evaluations)
	}
}

func TestSimulatedAnnealingImproves(t *testing.T) {
	_, pool, budget := testSpace(t)
	peak := cloud.Config{3, 1, 3}
	s := core.NewSession(landscape(peak), 0, 0, false)
	start := cloud.Config{1, 0, 1}
	res := SimulatedAnnealing(s, pool, budget, start, 17)
	startVal := landscape(peak)(start)
	if res.BestQPS <= startVal {
		t.Fatalf("SA did not improve: best %v vs start %v", res.BestQPS, startVal)
	}
	// Every explored configuration must respect the budget.
	for _, rec := range res.History {
		if !pool.WithinBudget(rec.Config, budget) {
			t.Fatalf("SA explored out-of-budget config %v", rec.Config)
		}
		if rec.Config.Total() == 0 {
			t.Fatal("SA explored the empty config")
		}
	}
}

func TestSimulatedAnnealingPanicsOnBadStart(t *testing.T) {
	_, pool, budget := testSpace(t)
	s := core.NewSession(func(cloud.Config) float64 { return 0 }, 0, 0, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SimulatedAnnealing(s, pool, budget, cloud.Config{1}, 1)
}

func TestGeneticConvergesNearPeak(t *testing.T) {
	configs, pool, budget := testSpace(t)
	peak := cloud.Config{2, 1, 4}
	s := core.NewSession(landscape(peak), 0, 0, false)
	res := Genetic(s, pool, budget, configs, 19)
	peakVal := landscape(peak)(peak)
	if res.BestQPS < peakVal-7*6 { // within distance ~6 of the peak
		t.Fatalf("GA best %v too far from peak value %v", res.BestQPS, peakVal)
	}
	for _, rec := range res.History {
		if !pool.WithinBudget(rec.Config, budget) {
			t.Fatalf("GA explored out-of-budget config %v", rec.Config)
		}
	}
}

func TestGeneticEmptySpace(t *testing.T) {
	_, pool, budget := testSpace(t)
	s := core.NewSession(func(cloud.Config) float64 { return 0 }, 0, 0, false)
	res := Genetic(s, pool, budget, nil, 1)
	if res.Evaluations != 0 {
		t.Fatal("empty candidate set must not evaluate")
	}
}

func TestBayesianFindsPeakWithFewEvals(t *testing.T) {
	configs, _, _ := testSpace(t)
	peak := cloud.Config{3, 1, 3}
	target := 1000.0 * 0.99
	s := core.NewSession(landscape(peak), target, 80, false)
	res := Bayesian(s, configs, 23)
	if !res.ReachedTarget {
		t.Fatalf("BO missed the target in %d evals (best %v at %v)",
			res.Evaluations, res.Best, res.BestQPS)
	}
	// The point of BO on a smooth landscape: far fewer evals than the
	// space size.
	if res.Evaluations > len(configs)/3 {
		t.Fatalf("BO used %d evals over a %d-config space", res.Evaluations, len(configs))
	}
}

func TestBayesianHandlesExhaustion(t *testing.T) {
	// Tiny space with an unreachable target: must terminate after
	// exhausting all candidates.
	configs := []cloud.Config{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	s := core.NewSession(func(cloud.Config) float64 { return 1 }, 100, 0, false)
	res := Bayesian(s, configs, 29)
	if res.ReachedTarget {
		t.Fatal("target unreachable")
	}
	if res.Evaluations != len(configs) {
		t.Fatalf("evaluations = %d, want %d", res.Evaluations, len(configs))
	}
}
