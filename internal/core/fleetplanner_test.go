package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"kairos/internal/cloud"
	"kairos/internal/models"
	"kairos/internal/workload"
)

// TestFleetPlannerCapChangeKeepsCachedFrontier pins the fix for the
// capFrontier aliasing bug: the old code clamped ub in place and
// truncated the shared points slice, which was harmless on a frontier
// built fresh per call but would corrupt a cached one the first time a
// demand cap changed between ticks. The planner applies the cap at read
// time, so planning repeatedly with different ArrivalQPS against the
// same cached frontier must match a from-scratch plan every time.
func TestFleetPlannerCapChangeKeepsCachedFrontier(t *testing.T) {
	t.Parallel()
	pool := cloud.DefaultPool()
	m := models.MustByName("NCF")
	const budget = 2.0
	samples := fleetSamples(workload.Uniform{Min: 10, Max: 60}, 1000, 11)

	planner, err := NewFleetPlanner(pool, budget)
	if err != nil {
		t.Fatal(err)
	}
	plan := func(d ModelDemand) FleetPlan {
		t.Helper()
		if err := planner.SetDemands([]ModelDemand{d}); err != nil {
			t.Fatal(err)
		}
		got, err := planner.Plan(budget)
		if err != nil {
			t.Fatal(err)
		}
		want, err := PlanFleet(pool, []ModelDemand{d}, budget)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("cached frontier diverged from scratch: %v vs %v (demand %+v)", got, want, d)
		}
		return got.Clone()
	}

	uncapped := plan(ModelDemand{Model: m, Samples: samples})
	est, err := NewEstimator(pool, m, samples)
	if err != nil {
		t.Fatal(err)
	}
	maxQPS := est.UpperBound(uncapped[m.Name])
	if maxQPS <= 0 {
		t.Fatalf("uncapped plan %v serves nothing", uncapped)
	}

	// A binding cap, a different binding cap, then the cap removed — all
	// against the one cached frontier. The in-place clamp would have
	// frozen the first ceiling into the cache.
	tight := plan(ModelDemand{Model: m, Samples: samples, ArrivalQPS: maxQPS / 10})
	if tight.Cost(pool) >= uncapped.Cost(pool) {
		t.Fatalf("tight cap did not bind: $%.3f vs $%.3f", tight.Cost(pool), uncapped.Cost(pool))
	}
	loose := plan(ModelDemand{Model: m, Samples: samples, ArrivalQPS: maxQPS / 2})
	if loose.Cost(pool) < tight.Cost(pool)-1e-9 {
		t.Fatalf("looser cap bought less: %v vs %v", loose, tight)
	}
	restored := plan(ModelDemand{Model: m, Samples: samples})
	if !restored.Equal(uncapped) {
		t.Fatalf("removing the cap must restore the full-throughput plan: %v vs %v", restored, uncapped)
	}
}

// randomWindow draws a random-size batch window from a random uniform mix.
func randomWindow(rng *rand.Rand) []int {
	lo := 1 + rng.Intn(200)
	dist := workload.Uniform{Min: lo, Max: lo + 1 + rng.Intn(400)}
	out := make([]int, 50+rng.Intn(300))
	for i := range out {
		out[i] = dist.Sample(rng)
	}
	return out
}

// perturbPool returns a standard pool with randomly scaled prices, so
// the property test explores frontiers the hand-written tests never hit.
func perturbPool(rng *rand.Rand) cloud.Pool {
	base := cloud.DefaultPool()
	if rng.Intn(2) == 0 {
		base = cloud.ThreeTypePool()
	}
	pool := make(cloud.Pool, len(base))
	copy(pool, base)
	for i := range pool {
		pool[i].PricePerHour *= 0.7 + 0.6*rng.Float64()
	}
	return pool
}

func randomDemands(rng *rand.Rand, k int) []ModelDemand {
	cat := models.Catalog()
	out := make([]ModelDemand, k)
	for i := range out {
		out[i] = ModelDemand{
			Model:   twin(cat[rng.Intn(len(cat))], fmt.Sprintf("m%02d", i)),
			Samples: randomWindow(rng),
		}
		if rng.Intn(2) == 0 {
			out[i].ArrivalQPS = rng.Float64() * 200
			if rng.Intn(2) == 0 {
				out[i].Headroom = rng.Float64()
			}
		}
	}
	return out
}

// TestFleetPlannerMatchesFromScratch is the oracle that makes the cache
// trustworthy: across randomized pools, demand sets, budgets, and
// sequences of window/cap/demand-set mutations, the incremental
// planner's result must stay Equal to a from-scratch PlanFleet over the
// same inputs after every mutation.
func TestFleetPlannerMatchesFromScratch(t *testing.T) {
	t.Parallel()
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(seed)))
			pool := perturbPool(rng)
			budget := 0.3 + 1.7*rng.Float64()
			planner, err := NewFleetPlanner(pool, budget)
			if err != nil {
				t.Fatal(err)
			}
			verify := func(step string, cur []ModelDemand, got FleetPlan, b float64) {
				t.Helper()
				want, err := PlanFleet(pool, cur, b)
				if err != nil {
					t.Fatalf("%s: from-scratch: %v", step, err)
				}
				if !got.Equal(want) {
					t.Fatalf("%s: incremental %v != from-scratch %v (budget %v)", step, got, want, b)
				}
			}

			demands := randomDemands(rng, 2+rng.Intn(4))
			if err := planner.SetDemands(demands); err != nil {
				t.Fatal(err)
			}
			got, err := planner.Plan(budget)
			if err != nil {
				t.Fatal(err)
			}
			verify("initial", demands, got, budget)

			for step := 0; step < 10; step++ {
				name := fmt.Sprintf("step%d", step)
				b := budget
				if rng.Intn(3) == 0 {
					b = budget * (0.1 + 0.9*rng.Float64()) // scale-in replans shrink the budget
				}
				switch rng.Intn(5) {
				case 0: // one window moves: one frontier rebuilds, the rest stay cached
					i := rng.Intn(len(demands))
					demands[i].Samples = randomWindow(rng)
					if err = planner.SetDemands(demands); err == nil {
						got, err = planner.Plan(b)
					}
				case 1: // caps change only; every frontier stays cached
					i := rng.Intn(len(demands))
					demands[i].ArrivalQPS = rng.Float64() * 200
					demands[i].Headroom = rng.Float64()
					if err = planner.SetDemands(demands); err == nil {
						got, err = planner.Plan(b)
					}
				case 2: // several windows move at once
					for i := range demands {
						if rng.Intn(2) == 0 {
							demands[i].Samples = randomWindow(rng)
						}
					}
					if err = planner.SetDemands(demands); err == nil {
						got, err = planner.Plan(b)
					}
				case 3: // nothing moved: the pure cache-hit steady path
					if err = planner.SetDemands(demands); err == nil {
						got, err = planner.Plan(b)
					}
				case 4: // shrink the active set, then restore it
					if len(demands) > 1 {
						sub := demands[:1+rng.Intn(len(demands)-1)]
						if err := planner.SetDemands(sub); err != nil {
							t.Fatal(err)
						}
						subGot, err := planner.Plan(b)
						if err != nil {
							t.Fatal(err)
						}
						verify(name+"/subset", sub, subGot, b)
					}
					if err = planner.SetDemands(demands); err == nil {
						got, err = planner.Plan(b)
					}
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				verify(name, demands, got, b)
			}
		})
	}
}

// directUpperBound assembles Eq. 15 for cfg by summing the window's
// latencies afresh — no prefix sums, no prepared regions: the reference
// the estimator's one assembly must agree with.
func directUpperBound(pool cloud.Pool, m models.Model, samples []int, cfg cloud.Config) float64 {
	sMax := 0
	for i, t := range pool {
		if i != cloud.BaseIndex && cfg[i] > 0 {
			sMax = max(sMax, m.CutoffBatch(t.Name))
		}
	}
	meanQPS := func(typeName string, keep func(b int) bool) float64 {
		sum, n := 0.0, 0
		for _, b := range samples {
			if keep(b) {
				sum += m.Latency(typeName, b)
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return 1000 / (sum / float64(n))
	}
	base := pool[cloud.BaseIndex].Name
	u, qB := cfg[cloud.BaseIndex], meanQPS(base, func(int) bool { return true })
	if sMax == 0 {
		return UpperBoundRaw(u, qB, 0, nil, 0)
	}
	inRegion := func(b int) bool { return b <= sMax }
	var vQa []float64
	for i, t := range pool {
		if i != cloud.BaseIndex && cfg[i] > 0 {
			vQa = append(vQa, float64(cfg[i])*meanQPS(t.Name, inRegion))
		}
	}
	n := 0
	for _, b := range samples {
		if inRegion(b) {
			n++
		}
	}
	qBSPlus := meanQPS(base, func(b int) bool { return !inRegion(b) })
	return UpperBoundRaw(u, qB, qBSPlus, vQa, float64(n)/float64(len(samples)))
}

// TestUpperBoundIntoMatchesUpperBound: the planner's scratch-reusing calls
// return exactly what UpperBound does, and both agree with Eq. 15 summed
// directly from the window, over the whole candidate space, before and
// after a window Reset.
func TestUpperBoundIntoMatchesUpperBound(t *testing.T) {
	t.Parallel()
	pool := cloud.DefaultPool()
	m := models.MustByName("RM2")
	window := fleetSamples(workload.Uniform{Min: 10, Max: 120}, 500, 13)
	est, err := NewEstimator(pool, m, window)
	if err != nil {
		t.Fatal(err)
	}
	var scratch []float64
	check := func() {
		t.Helper()
		for _, cfg := range pool.Enumerate(1.5) {
			var fast float64
			fast, scratch = est.upperBoundInto(cfg, scratch)
			if want := est.UpperBound(cfg); fast != want {
				t.Fatalf("upperBoundInto(%v) = %v, UpperBound = %v", cfg, fast, want)
			}
			if ref := directUpperBound(pool, m, window, cfg); math.Abs(fast-ref) > 1e-9*max(1, ref) {
				t.Fatalf("UpperBound(%v) = %v, direct Eq. 15 = %v", cfg, fast, ref)
			}
		}
	}
	check()
	window = fleetSamples(workload.Uniform{Min: 200, Max: 600}, 800, 14)
	if err := est.Reset(window); err != nil {
		t.Fatal(err)
	}
	check()
}

// TestEstimatorResetMatchesFresh: a Reset estimator must be
// indistinguishable from one built fresh over the new window.
func TestEstimatorResetMatchesFresh(t *testing.T) {
	t.Parallel()
	pool := cloud.DefaultPool()
	m := models.MustByName("NCF")
	est, err := NewEstimator(pool, m, fleetSamples(workload.Uniform{Min: 10, Max: 60}, 400, 15))
	if err != nil {
		t.Fatal(err)
	}
	next := fleetSamples(workload.Uniform{Min: 100, Max: 900}, 700, 16)
	if err := est.Reset(next); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewEstimator(pool, m, next)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range pool.Enumerate(1.2) {
		if got, want := est.UpperBound(cfg), fresh.UpperBound(cfg); got != want {
			t.Fatalf("reset UpperBound(%v) = %v, fresh = %v", cfg, got, want)
		}
	}
	if err := est.Reset(nil); err == nil {
		t.Fatal("Reset(nil) must fail")
	}
	if err := est.Reset([]int{0}); err == nil {
		t.Fatal("Reset with out-of-range batch must fail")
	}
	// A failed Reset leaves the previous window in force.
	if got, want := est.UpperBound(cloud.Config{1, 0, 0, 0}), fresh.UpperBound(cloud.Config{1, 0, 0, 0}); got != want {
		t.Fatalf("failed Reset corrupted the window: %v vs %v", got, want)
	}
}
