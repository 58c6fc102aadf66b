package core

import (
	"math/rand"
	"testing"

	"kairos/internal/cloud"
	"kairos/internal/models"
	"kairos/internal/predictor"
	"kairos/internal/sim"
	"kairos/internal/workload"
)

// benchViews builds a reproducible scheduling round: q waiting queries of
// the trace mix against a heterogeneous fleet of n instances.
func benchViews(q, n int, seed int64) ([]sim.QueryView, []sim.InstanceView) {
	rng := rand.New(rand.NewSource(seed))
	mix := workload.DefaultTrace()
	pool := cloud.DefaultPool()
	queries := make([]sim.QueryView, q)
	for i := range queries {
		queries[i] = sim.QueryView{Index: i, Batch: mix.Sample(rng), WaitMS: rng.Float64() * 5}
	}
	instances := make([]sim.InstanceView, n)
	for i := range instances {
		instances[i] = sim.InstanceView{Index: i, TypeName: pool[i%len(pool)].Name}
	}
	return queries, instances
}

// benchDistributor is the warmed paper policy the live controller runs.
func benchDistributor() *Distributor {
	m := models.MustByName("RM2")
	pool := cloud.DefaultPool()
	names := make([]string, len(pool))
	for i, t := range pool {
		names[i] = t.Name
	}
	return NewDistributor(DistributorOptions{
		QoS:       m.QoS,
		BaseType:  pool.Base().Name,
		Predictor: predictor.Warmed(m.Latency, names, []int{1, 250, 500, 750, 1000}),
	})
}

// The matching distributor's Assign is the serving hot path: the central
// controller runs it on every scheduling round. These benchmarks feed the
// CI perf-tracking job (BENCH_micro.json).

func benchAssign(b *testing.B, q, n int) {
	d := benchDistributor()
	queries, instances := benchViews(q, n, 42)
	d.Assign(0, queries, instances) // grow the round's scratch: time the steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Assign(float64(i), queries, instances)
	}
}

func BenchmarkDistributorAssign8x4(b *testing.B)   { benchAssign(b, 8, 4) }
func BenchmarkDistributorAssign32x8(b *testing.B)  { benchAssign(b, 32, 8) }
func BenchmarkDistributorAssign64x16(b *testing.B) { benchAssign(b, 64, 16) }

// A flash crowd's round: the central queue ~1000 deep (benchmark/'s
// burst-deep), solved over the pruned union instead of every row.
func BenchmarkDistributorAssign1000x16(b *testing.B) { benchAssign(b, 1000, 16) }

// The same queue over the largest fleet the planner buys at the paper's
// budgets (RM2 at $10/hr, 56 instances), rounded up: the one round Kairos
// runs per model must stay cheap here (DESIGN.md, "Scaling past one
// matching round").
func BenchmarkDistributorAssign1000x64(b *testing.B) { benchAssign(b, 1000, 64) }

// windowState is a central queue and an idle fleet seen by sim.Round:
// queries in enqueue order, so waits fall with position, and dispatches
// that change nothing, so every round is the same round.
type windowState struct {
	batch []int
	wait  []float64
	types []string
}

func (s *windowState) Query(q int) (int, float64) { return s.batch[q], s.wait[q] }
func (s *windowState) Instance(i int, queued []int) (string, float64, []int) {
	return s.types[i], 0, queued
}
func (s *windowState) Dispatch(q, i int) {}

// BenchmarkDistributorAssignWindowed1000x16 is burst-deep's round as both
// clocks run it: 1000 waiting MT-WND queries whose waits straddle Kairos's
// horizon, on 4 g4dn.xlarge + 12 r5n.large, through sim.Round.Match under
// kairos+warm. The round shows the policy the 500 queries inside the
// horizon plus the oldest 17 late ones (DESIGN.md "One round, two
// clocks").
func BenchmarkDistributorAssignWindowed1000x16(b *testing.B) {
	pool := cloud.DefaultPool()
	m := models.MustByName("MT-WND")
	d := NewDistributor(DistributorOptions{
		QoS: m.QoS, BaseType: pool.Base().Name, Predictor: WarmedPredictor(pool, m),
	})
	const depth = 1000
	rng := rand.New(rand.NewSource(42))
	mix := workload.DefaultTrace()
	s := &windowState{batch: make([]int, depth), wait: make([]float64, depth)}
	for i := range s.batch {
		// Waits fall linearly from twice the horizon to 0: half the queue
		// is late.
		s.batch[i] = mix.Sample(rng)
		s.wait[i] = 2 * d.HorizonMS() * float64(depth-i) / depth
	}
	for i := 0; i < 16; i++ {
		t := cloud.R5nLarge.Name
		if i < 4 {
			t = cloud.G4dnXlarge.Name
		}
		s.types = append(s.types, t)
	}
	var r sim.Round
	r.Start(depth)
	r.Match(d, 0, s, len(s.types)) // grow the round's scratch: time the steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Start(depth)
		r.Match(d, float64(i), s, len(s.types))
	}
}

// A flash crowd's onset: a fresh distributor's queue deepening from 1 to
// 1000 over 16 instances, one round per depth. Its allocs/op is what the
// round's scratch costs to grow, O(log depth); the DistributorAssign
// entries above time the grown steady state.
func BenchmarkDistributorGrowth1000x16(b *testing.B) {
	opts := benchDistributor().opts // one warmed predictor: Assign only reads it
	queries, instances := benchViews(1000, 16, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDistributor(opts)
		for k := 1; k <= len(queries); k++ {
			d.Assign(float64(k), queries[:k], instances)
		}
	}
}

// BenchmarkSimRun is the simulator under the paper's policy: one sim.Run
// of b.N Poisson arrivals at ~70 % of an 8-instance RM2 fleet's allowable
// throughput (85 qps). An op is one arrival and the rounds it causes; the
// run's one-time costs (the query records, the event heap, the round's
// scratch growth) spread over b.N, so allocs/op reads what a steady-state
// round allocates.
func BenchmarkSimRun(b *testing.B) {
	spec := sim.ClusterSpec{Pool: cloud.DefaultPool(), Config: cloud.Config{4, 0, 4, 0}, Model: models.MustByName("RM2")}
	rng := rand.New(rand.NewSource(1))
	mix := workload.DefaultTrace()
	arrivals := make([]workload.Arrival, b.N)
	t := 0.0
	for i := range arrivals {
		t += rng.ExpFloat64() * 1000 / 60
		arrivals[i] = workload.Arrival{AtMS: t, Batch: mix.Sample(rng)}
	}
	d := benchDistributor()
	b.ReportAllocs()
	b.ResetTimer()
	sim.Run(spec, d, sim.Options{Arrivals: arrivals})
}

// BenchmarkPlanFleet tracks the shared-budget allocator: frontier
// construction plus the greedy split for two models under the paper's
// default budget.
func BenchmarkPlanFleet(b *testing.B) {
	pool := cloud.DefaultPool()
	rng := rand.New(rand.NewSource(42))
	mix := workload.DefaultTrace()
	samples := make([]int, 2000)
	for i := range samples {
		samples[i] = mix.Sample(rng)
	}
	demands := []ModelDemand{
		{Model: models.MustByName("RM2"), Samples: samples},
		{Model: models.MustByName("NCF"), Samples: samples},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlanFleet(pool, demands, 2.5); err != nil {
			b.Fatal(err)
		}
	}
}
