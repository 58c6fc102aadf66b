package sim

import (
	"math"
	"reflect"
	"testing"

	"kairos/internal/cloud"
	"kairos/internal/models"
	"kairos/internal/workload"
)

func rm2Spec(cfg cloud.Config) ClusterSpec {
	return ClusterSpec{
		Pool:   cloud.ThreeTypePool(),
		Config: cfg,
		Model:  models.MustByName("RM2"),
	}
}

func TestInstanceTypesExpansion(t *testing.T) {
	spec := rm2Spec(cloud.Config{2, 0, 1})
	types := spec.InstanceTypes()
	want := []string{"g4dn.xlarge", "g4dn.xlarge", "r5n.large"}
	if len(types) != len(want) {
		t.Fatalf("types = %v", types)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("types = %v, want %v", types, want)
		}
	}
}

func TestInstanceTypesPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ClusterSpec{Pool: cloud.ThreeTypePool(), Config: cloud.Config{1}}.InstanceTypes()
}

// TestSingleInstanceFCFSArithmetic replays two deterministic arrivals
// through one G1 instance and checks the engine's exact timing math.
func TestSingleInstanceFCFSArithmetic(t *testing.T) {
	spec := rm2Spec(cloud.Config{1, 0, 0})
	service := spec.Model.Latency("g4dn.xlarge", 100) // 62 + 5.5 = 67.5ms
	res := Run(spec, FCFSAny{}, Options{
		Arrivals: []workload.Arrival{
			{AtMS: 0, Batch: 100},
			{AtMS: 1, Batch: 100},
		},
	})
	if res.TotalQueries != 2 || res.Measured.Count != 2 {
		t.Fatalf("result = %+v", res)
	}
	// First query: latency = service. Second: waits until service, then
	// serves: latency = service - 1 + service.
	wantMax := 2*service - 1
	if math.Abs(res.Measured.Max-wantMax) > 1e-9 {
		t.Fatalf("max latency = %v, want %v", res.Measured.Max, wantMax)
	}
	if math.Abs(res.MeanWaitMS-(service-1)/2) > 1e-9 {
		t.Fatalf("mean wait = %v, want %v", res.MeanWaitMS, (service-1)/2)
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	spec := rm2Spec(cloud.Config{2, 0, 2})
	opts := Options{RatePerSec: 20, DurationMS: 20000, WarmupMS: 2000, Seed: 99}
	a := Run(spec, FCFSAny{}, opts)
	b := Run(spec, FCFSAny{}, opts)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different results:\n%+v\n%+v", a, b)
	}
	c := Run(spec, FCFSAny{}, Options{RatePerSec: 20, DurationMS: 20000, WarmupMS: 2000, Seed: 100})
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical results (suspicious)")
	}
}

func TestQoSAccounting(t *testing.T) {
	// One slow auxiliary instance serving batches beyond its cutoff: every
	// query violates QoS.
	spec := rm2Spec(cloud.Config{0, 0, 1})
	res := Run(spec, FCFSAny{}, Options{
		Arrivals: []workload.Arrival{{AtMS: 0, Batch: 1000}}, // 9+1350 = 1359ms >> 350ms
	})
	if res.MeetsQoS {
		t.Fatal("batch-1000 on r5n must violate RM2 QoS")
	}
	if res.ViolationRate != 1 {
		t.Fatalf("violation rate = %v, want 1", res.ViolationRate)
	}
}

func TestWarmupWindowExcluded(t *testing.T) {
	spec := rm2Spec(cloud.Config{1, 0, 0})
	res := Run(spec, FCFSAny{}, Options{
		RatePerSec: 10,
		DurationMS: 10000,
		WarmupMS:   5000,
		Seed:       1,
	})
	if res.Measured.Count >= res.TotalQueries {
		t.Fatalf("warmup not excluded: measured %d of %d", res.Measured.Count, res.TotalQueries)
	}
	if res.Measured.Count == 0 {
		t.Fatal("nothing measured")
	}
}

func TestLeastLoadedDispatchesEverything(t *testing.T) {
	spec := rm2Spec(cloud.Config{1, 1, 1})
	res := Run(spec, &LeastLoaded{}, Options{RatePerSec: 30, DurationMS: 10000, Seed: 3})
	if res.Measured.Count == 0 {
		t.Fatal("nothing measured")
	}
	// Single-query deterministic replay: immediate dispatch to an idle
	// instance means zero wait before service.
	one := Run(spec, &LeastLoaded{}, Options{Arrivals: []workload.Arrival{{AtMS: 0, Batch: 10}}})
	if one.MeanWaitMS != 0 {
		t.Fatalf("idle cluster should start service immediately, wait %v", one.MeanWaitMS)
	}
}

func TestFCFSKeepsArrivalOrder(t *testing.T) {
	// Two queries, one instance: the first to arrive must be served first
	// even if the second is smaller.
	spec := rm2Spec(cloud.Config{1, 0, 0})
	res := Run(spec, FCFSAny{}, Options{
		Arrivals: []workload.Arrival{
			{AtMS: 0, Batch: 900},
			{AtMS: 0.5, Batch: 1},
		},
	})
	// If order was respected, the small query's latency includes the big
	// query's full service time.
	big := spec.Model.Latency("g4dn.xlarge", 900)
	small := spec.Model.Latency("g4dn.xlarge", 1)
	wantSmallLatency := big - 0.5 + small
	if math.Abs(res.Measured.Max-wantSmallLatency) > 1e-9 {
		t.Fatalf("max latency %v, want %v (FCFS order violated?)", res.Measured.Max, wantSmallLatency)
	}
	_ = res
}

func TestRunPanicsOnBadOptions(t *testing.T) {
	spec := rm2Spec(cloud.Config{1, 0, 0})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic for zero duration")
			}
		}()
		Run(spec, FCFSAny{}, Options{RatePerSec: 1})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic for warmup >= duration")
			}
		}()
		Run(spec, FCFSAny{}, Options{RatePerSec: 1, DurationMS: 100, WarmupMS: 100})
	}()
}

func TestFindAllowableThroughputSingleBase(t *testing.T) {
	// Fixed batch size makes capacity analytic: 1 / lat(100).
	spec := rm2Spec(cloud.Config{1, 0, 0})
	capacity := 1000 / spec.Model.Latency("g4dn.xlarge", 100) // ~14.8 QPS
	// 450 queries keep every probe at or below 15 QPS at least 30 s long.
	got := FindAllowableThroughput(spec, Static(FCFSAny{}), FindOptions{
		ProbeQueries: 450,
		Seed:         5,
		Batches:      workload.Fixed(100),
	})
	if got <= 0.2*capacity || got > capacity {
		t.Fatalf("allowable throughput %v outside (%.1f, %.1f]", got, 0.2*capacity, capacity)
	}
}

func TestFindAllowableThroughputScalesWithInstances(t *testing.T) {
	// 540 queries keep every probe at or below 27 QPS at least 20 s long.
	one := FindAllowableThroughput(rm2Spec(cloud.Config{1, 0, 0}), Static(FCFSAny{}), FindOptions{
		ProbeQueries: 540, Seed: 6, Batches: workload.Fixed(200)})
	three := FindAllowableThroughput(rm2Spec(cloud.Config{3, 0, 0}), Static(FCFSAny{}), FindOptions{
		ProbeQueries: 540, Seed: 6, Batches: workload.Fixed(200)})
	if three < 1.8*one {
		t.Fatalf("3 instances (%v QPS) should far exceed 1 instance (%v QPS)", three, one)
	}
}

func TestFindAllowableThroughputZeroWhenInfeasible(t *testing.T) {
	// Auxiliary-only pool cannot serve max-size queries under QoS; with a
	// fixed batch beyond its cutoff the allowable throughput is zero.
	spec := rm2Spec(cloud.Config{0, 0, 2})
	// 10 queries keep the 1 QPS floor probe 10 s long.
	got := FindAllowableThroughput(spec, Static(FCFSAny{}), FindOptions{
		ProbeQueries: 10,
		Seed:         7,
		Batches:      workload.Fixed(1000),
	})
	if got != 0 {
		t.Fatalf("allowable throughput = %v, want 0", got)
	}
	if FindAllowableThroughput(rm2Spec(cloud.Config{0, 0, 0}), Static(FCFSAny{}), FindOptions{}) != 0 {
		t.Fatal("empty config must have zero throughput")
	}
}

func TestOracleThroughputHomogeneousAnalytic(t *testing.T) {
	// Homogeneous base pool: ORCL throughput ~= n * 1000/E[lat(batch)].
	spec := rm2Spec(cloud.Config{4, 0, 0})
	opts := OracleOptions{Queries: 30000, Seed: 8, Batches: workload.Fixed(100)}
	got := OracleThroughput(spec, opts)
	want := 4 * 1000 / spec.Model.Latency("g4dn.xlarge", 100)
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("oracle throughput %v, want ~%v", got, want)
	}
}

func TestOracleHeterogeneousBeatsCostEquivalentHomogeneous(t *testing.T) {
	// The motivation claim (Sec. 4): with the default mix, a good
	// heterogeneous configuration outperforms the best homogeneous one.
	opts := OracleOptions{Queries: 20000, Seed: 9}
	hom := OracleThroughput(rm2Spec(cloud.Config{4, 0, 0}), opts)
	het := OracleThroughput(rm2Spec(cloud.Config{3, 1, 3}), opts)
	if het <= hom {
		t.Fatalf("heterogeneous oracle %v should beat homogeneous %v", het, hom)
	}
}

func TestOracleZeroWithoutBase(t *testing.T) {
	spec := rm2Spec(cloud.Config{0, 2, 2})
	got := OracleThroughput(spec, OracleOptions{Queries: 5000, Seed: 10})
	if got != 0 {
		t.Fatalf("oracle without base instances = %v, want 0 (large queries unservable)", got)
	}
}

func TestOracleEmptyConfig(t *testing.T) {
	if got := OracleThroughput(rm2Spec(cloud.Config{0, 0, 0}), OracleOptions{Queries: 100, Seed: 1}); got != 0 {
		t.Fatalf("empty config oracle = %v", got)
	}
}

func TestOracleMonotoneInInstances(t *testing.T) {
	opts := OracleOptions{Queries: 10000, Seed: 11}
	small := OracleThroughput(rm2Spec(cloud.Config{1, 1, 1}), opts)
	big := OracleThroughput(rm2Spec(cloud.Config{2, 2, 2}), opts)
	if big <= small {
		t.Fatalf("oracle not monotone: %v -> %v", small, big)
	}
}

func TestOracleSearchFindsBudgetRespectingBest(t *testing.T) {
	pool := cloud.ThreeTypePool()
	model := models.MustByName("RM2")
	cfg, qps := OracleSearch(pool, model, 2.5, OracleOptions{Queries: 4000, Seed: 12})
	if qps <= 0 {
		t.Fatal("oracle search found nothing")
	}
	if !pool.WithinBudget(cfg, 2.5) {
		t.Fatalf("best config %v exceeds budget", cfg)
	}
	if cfg.Base() == 0 {
		t.Fatalf("best config %v has no base instances", cfg)
	}
	// It must beat the homogeneous configuration under the same evaluator.
	hom := OracleThroughput(ClusterSpec{Pool: pool, Config: pool.Homogeneous(2.5), Model: model},
		OracleOptions{Queries: 4000, Seed: 12})
	if qps < hom {
		t.Fatalf("oracle best %v below homogeneous %v", qps, hom)
	}
}

func TestBacklogView(t *testing.T) {
	v := InstanceView{RemainingMS: 0}
	if v.Backlog() != 0 {
		t.Fatal("idle instance backlog != 0")
	}
	v = InstanceView{RemainingMS: 5, QueuedBatches: []int{1, 2}}
	if v.Backlog() != 3 {
		t.Fatalf("backlog = %d, want 3", v.Backlog())
	}
}
