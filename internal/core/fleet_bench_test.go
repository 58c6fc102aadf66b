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

// BenchmarkPlanFleet100Models: a 100-model fleet planned from scratch —
// one enumeration, 100 estimators and frontiers, then the allocation.
// Planning should stay linear in model count: the CI bench job holds it
// to at most 60 times this same run's BenchmarkPlanFleet2Models.
func BenchmarkPlanFleet100Models(b *testing.B) {
	pool := cloud.DefaultPool()
	demands := benchFleetDemands(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlanFleet(pool, demands, 2.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanFleet2Models is the seed benchmark: a two-model fleet
// planned from scratch, the shape PlanFleetFor takes.
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
