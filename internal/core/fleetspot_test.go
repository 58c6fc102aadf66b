package core

import (
	"fmt"
	"math/rand"
	"testing"

	"kairos/internal/cloud"
	"kairos/internal/models"
	"kairos/internal/workload"
)

// onDemandOnly zeroes a configuration's spot counts: what is left of the
// fleet after a simultaneous revocation of every spot instance.
func onDemandOnly(pool cloud.Pool, cfg cloud.Config) cloud.Config {
	out := cfg.Clone()
	for i, t := range pool {
		if t.Market == cloud.Spot {
			out[i] = 0
		}
	}
	return out
}

// assertFloors fails the test if any model with an armed on-demand floor
// got a nonzero allocation whose on-demand-only upper bound cannot cover
// the floor — the plan would not survive losing its spot capacity.
func assertFloors(t *testing.T, step string, pool cloud.Pool, demands []ModelDemand, plan FleetPlan) {
	t.Helper()
	for _, d := range demands {
		floor := d.floorQPS()
		if floor <= 0 || !pool.HasSpot() {
			continue
		}
		cfg := plan.Config(d.Model.Name)
		if cfg.Total() == 0 {
			continue // starved models have no allocation to risk-bound
		}
		est, err := NewEstimator(pool, d.Model, d.Samples)
		if err != nil {
			t.Fatal(err)
		}
		od := est.UpperBound(onDemandOnly(pool, cfg))
		if od < floor-costEps {
			t.Fatalf("%s: %s allocated %v with on-demand-only bound %.4f QPS below floor %.4f",
				step, d.Model.Name, cfg, od, floor)
		}
	}
}

// spotDemands draws random demands like randomDemands but arms demand
// caps on every model and on-demand floors on most, so the floor path and
// its interaction with the cap are both exercised.
func spotDemands(rng *rand.Rand, k int) []ModelDemand {
	cat := models.Catalog()
	out := make([]ModelDemand, k)
	for i := range out {
		out[i] = ModelDemand{
			Model:      twin(cat[rng.Intn(len(cat))], fmt.Sprintf("m%02d", i)),
			Samples:    randomWindow(rng),
			ArrivalQPS: 1 + rng.Float64()*150,
			Headroom:   rng.Float64(),
		}
		switch rng.Intn(4) {
		case 0: // no floor
		case 1:
			out[i].OnDemandFloor = rng.Float64() // partial survival
		case 2:
			out[i].OnDemandFloor = 1 // full demand must survive revocation
		case 3: // opted out of the floor
			// Unused, but drawn: each seed's cases, and so the golden
			// plans, depend on the whole stream.
			_ = rng.Float64()
		}
	}
	return out
}

// TestFleetPlannerSpotFloorNeverViolated is the risk-bounding property
// test: across randomized spot markets, demand sets, floors, budgets,
// and sequences of window, cap and floor mutations, no plan ever
// allocates a model a configuration whose on-demand-only upper bound is
// below its armed floor.
func TestFleetPlannerSpotFloorNeverViolated(t *testing.T) {
	t.Parallel()
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(100 + seed)))
			pool := perturbPool(rng).WithSpotMarket(0.3 + 0.5*rng.Float64())
			budget := 0.5 + 2.0*rng.Float64()
			verify := func(step string, cur []ModelDemand, b float64) {
				t.Helper()
				got, err := PlanFleet(pool, cur, b)
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				assertFloors(t, step, pool, cur, got)
			}

			demands := spotDemands(rng, 2+rng.Intn(3))
			verify("initial", demands, budget)

			for step := 0; step < 8; step++ {
				b := budget
				if rng.Intn(3) == 0 {
					b = budget * (0.2 + 0.8*rng.Float64())
				}
				switch rng.Intn(4) {
				case 0: // one window moves
					i := rng.Intn(len(demands))
					demands[i].Samples = randomWindow(rng)
				case 1: // floor and cap both move
					i := rng.Intn(len(demands))
					demands[i].ArrivalQPS = 1 + rng.Float64()*150
					demands[i].OnDemandFloor = rng.Float64()
				case 2: // a model may opt out of its floor
					i := rng.Intn(len(demands))
					if rng.Intn(2) == 1 {
						demands[i].OnDemandFloor = 0
					}
				case 3: // nothing moved
				}
				verify(fmt.Sprintf("step%d", step), demands, b)
			}
		})
	}
}

// TestSpotMarketNeverPlansWorse: the spot-extended pool embeds every
// on-demand configuration, so at the same budget the planner must reach
// at least the throughput of the spot-free plan — and with a deep
// discount and no floor it should actually buy spot capacity.
func TestSpotMarketNeverPlansWorse(t *testing.T) {
	t.Parallel()
	base := cloud.DefaultPool()
	spot := base.WithSpotMarket(0.7)
	m := models.MustByName("NCF")
	samples := fleetSamples(workload.Uniform{Min: 10, Max: 60}, 800, 21)
	const budget = 1.2

	ub := func(pool cloud.Pool, plan FleetPlan) float64 {
		t.Helper()
		est, err := NewEstimator(pool, m, samples)
		if err != nil {
			t.Fatal(err)
		}
		return est.UpperBound(plan.Config(m.Name))
	}
	odPlan, err := PlanFleet(base, []ModelDemand{{Model: m, Samples: samples}}, budget)
	if err != nil {
		t.Fatal(err)
	}
	spotPlan, err := PlanFleet(spot, []ModelDemand{{Model: m, Samples: samples}}, budget)
	if err != nil {
		t.Fatal(err)
	}
	odUB, spotUB := ub(base, odPlan), ub(spot, spotPlan)
	if spotUB < odUB-costEps {
		t.Fatalf("spot market lost throughput at the same budget: %.4f < %.4f", spotUB, odUB)
	}
	usesSpot := false
	for i, typ := range spot {
		if typ.Market == cloud.Spot && spotPlan.Config(m.Name)[i] > 0 {
			usesSpot = true
		}
	}
	if !usesSpot {
		t.Fatalf("70%% discount, no floor, and the plan %v bought no spot capacity", spotPlan)
	}
}

// TestOnDemandFloorSemantics pins the floor's scoping rules: a full
// floor forces survivable on-demand capacity, while spot-free pools
// ignore the knob entirely.
func TestOnDemandFloorSemantics(t *testing.T) {
	t.Parallel()
	pool := cloud.DefaultPool().WithSpotMarket(0.6)
	m := models.MustByName("NCF")
	samples := fleetSamples(workload.Uniform{Min: 10, Max: 60}, 800, 22)
	const budget = 1.5
	plan := func(d ModelDemand) FleetPlan {
		t.Helper()
		got, err := PlanFleet(pool, []ModelDemand{d}, budget)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	est, err := NewEstimator(pool, m, samples)
	if err != nil {
		t.Fatal(err)
	}

	floored := plan(ModelDemand{Model: m, Samples: samples, ArrivalQPS: 40, OnDemandFloor: 1})
	if od := est.UpperBound(onDemandOnly(pool, floored.Config(m.Name))); od < 40-costEps {
		t.Fatalf("full floor at 40 QPS left only %.4f QPS of on-demand capacity: %v", od, floored)
	}

	// Spot-free pools ignore it — the constraint is about revocation.
	noSpot, err := PlanFleet(cloud.DefaultPool(),
		[]ModelDemand{{Model: m, Samples: samples, ArrivalQPS: 40, OnDemandFloor: 1}}, budget)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := PlanFleet(cloud.DefaultPool(),
		[]ModelDemand{{Model: m, Samples: samples, ArrivalQPS: 40}}, budget)
	if err != nil {
		t.Fatal(err)
	}
	if !noSpot.Equal(plain) {
		t.Fatalf("a spot-free pool must ignore the floor: %v vs %v", noSpot, plain)
	}
}
