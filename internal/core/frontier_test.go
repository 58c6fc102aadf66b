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
// capFrontier aliasing bug: the cap must be a read-time view of the
// frontier, never an in-place clamp or truncation of it. Planning the
// same window under a binding cap, a different binding cap, and no cap
// must give each cap its own answer.
func TestFleetPlannerCapChangeKeepsCachedFrontier(t *testing.T) {
	t.Parallel()
	pool := cloud.DefaultPool()
	m := models.MustByName("NCF")
	const budget = 2.0
	samples := fleetSamples(workload.Uniform{Min: 10, Max: 60}, 1000, 11)

	plan := func(d ModelDemand) FleetPlan {
		t.Helper()
		got, err := PlanFleet(pool, []ModelDemand{d}, budget)
		if err != nil {
			t.Fatal(err)
		}
		return got
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

	// A binding cap, a different binding cap, then the cap removed.
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
// directly from the window, over the whole candidate space, for two
// windows.
func TestUpperBoundIntoMatchesUpperBound(t *testing.T) {
	t.Parallel()
	pool := cloud.DefaultPool()
	m := models.MustByName("RM2")
	window := fleetSamples(workload.Uniform{Min: 10, Max: 120}, 500, 13)
	var scratch []float64
	check := func() {
		t.Helper()
		est, err := NewEstimator(pool, m, window)
		if err != nil {
			t.Fatal(err)
		}
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
	check()
}
