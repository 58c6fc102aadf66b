package core

import (
	"fmt"
	"math/rand"
	"testing"

	"kairos/internal/cloud"
	"kairos/internal/models"
	"kairos/internal/workload"
)

// benchFleetDemands builds n catalog-model twins with 2000-sample trace
// windows each — the same shape the microbench and the autopilot feed in.
func benchFleetDemands(n int) []ModelDemand {
	rng := rand.New(rand.NewSource(42))
	cat := models.Catalog()
	mix := workload.DefaultTrace()
	out := make([]ModelDemand, n)
	for i := range out {
		samples := make([]int, 2000)
		for j := range samples {
			samples[j] = mix.Sample(rng)
		}
		out[i] = ModelDemand{
			Model:   twin(cat[i%len(cat)], fmt.Sprintf("bench-%03d", i)),
			Samples: samples,
		}
	}
	return out
}

// BenchmarkPlanFleet100Models: a full 100-model replan through the warm
// incremental planner — fingerprint every window (none moved) and rerun
// greedy allocation. The budget target: no slower than the seed's
// 2-model from-scratch PlanFleet (~1.75ms).
func BenchmarkPlanFleet100Models(b *testing.B) {
	pool := cloud.DefaultPool()
	demands := benchFleetDemands(100)
	planner, err := NewFleetPlanner(pool, 2.5)
	if err != nil {
		b.Fatal(err)
	}
	if err := planner.SetDemands(demands); err != nil {
		b.Fatal(err)
	}
	if _, err := planner.Plan(2.5); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := planner.SetDemands(demands); err != nil {
			b.Fatal(err)
		}
		if _, err := planner.Plan(2.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanFleetIncrementalOneDirty: 1 of 100 windows moved — the
// autopilot's drift/SLO trigger path, which hands the planner every
// model's window (SetDemands fingerprints all 100) and replans the fleet.
// Pays one estimator reset + frontier rescan plus the greedy rerun.
func BenchmarkPlanFleetIncrementalOneDirty(b *testing.B) {
	pool := cloud.DefaultPool()
	demands := benchFleetDemands(100)
	planner, err := NewFleetPlanner(pool, 2.5)
	if err != nil {
		b.Fatal(err)
	}
	if err := planner.SetDemands(demands); err != nil {
		b.Fatal(err)
	}
	if _, err := planner.Plan(2.5); err != nil {
		b.Fatal(err)
	}
	// Two windows for the dirty model, alternated so every iteration
	// really invalidates and rebuilds its frontier.
	windows := [2][]int{demands[50].Samples, benchFleetDemands(1)[0].Samples}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		demands[50].Samples = windows[i%2]
		if err := planner.SetDemands(demands); err != nil {
			b.Fatal(err)
		}
		if _, err := planner.Plan(2.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanFleet2Models is the seed benchmark: the from-scratch
// two-model path PlanFleetFor still takes.
func BenchmarkPlanFleet2Models(b *testing.B) {
	pool := cloud.DefaultPool()
	demands := benchFleetDemands(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlanFleet(pool, demands, 2.5); err != nil {
			b.Fatal(err)
		}
	}
}
