// Planner example: pick a heterogeneous configuration for a cost budget
// without any online evaluation (Sec. 5.2).
//
// The engine plans from recent traffic (here: a synthetic trace-like
// batch-size snapshot pinned with WithBatchSamples), computing the
// throughput upper bound of every configuration that fits the budget and
// picking one with the similarity criterion. The example then verifies the
// pick against the simulator and against the budget-scaled homogeneous
// alternative.
//
// Run with: go run ./examples/planner
package main

import (
	"fmt"
	"math/rand"

	"kairos"
)

func main() {
	const budget = 2.5 // $/hr, the paper's default
	pool := kairos.DefaultPool()

	// Observe traffic: in production this is a window of live queries (the
	// autopilot keeps one per model); here we synthesize 10k batch sizes
	// from the default mix.
	rng := rand.New(rand.NewSource(1))
	trace := kairos.DefaultTrace()
	samples := make([]int, 10000)
	for i := range samples {
		samples[i] = trace.Sample(rng)
	}

	engine, err := kairos.New(
		kairos.WithPool(pool),
		kairos.WithModels("RM2"),
		kairos.WithBudget(budget),
		kairos.WithPolicy("kairos+warm"),
		kairos.WithBatchSamples(samples),
		kairos.WithSeed(1),
	)
	if err != nil {
		panic(err)
	}

	ranked, err := engine.Rank()
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d configurations fit $%.2f/hr; top 5 by throughput upper bound:\n", len(ranked), budget)
	for _, rc := range ranked[:5] {
		fmt.Printf("  %-12v cost $%.3f/hr  UB %.1f QPS\n", rc.Config, pool.Cost(rc.Config), rc.UpperBound)
	}

	pick, err := engine.Plan()
	if err != nil {
		panic(err)
	}
	fmt.Printf("\none-shot pick: %v (no online evaluation)\n", pick)

	// Verify against the simulator under the engine's policy.
	qps, err := engine.AllowableThroughput(pick)
	if err != nil {
		panic(err)
	}

	hom := pool.Homogeneous(budget)
	homQPS, err := engine.AllowableThroughput(hom)
	if err != nil {
		panic(err)
	}
	homQPS *= pool.HomogeneousScale(budget)

	fmt.Printf("measured: %.1f QPS vs homogeneous %v at %.1f QPS -> %.2fx gain\n",
		qps, hom, homQPS, qps/homQPS)
}
