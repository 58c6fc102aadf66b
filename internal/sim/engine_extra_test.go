package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"kairos/internal/cloud"
	"kairos/internal/models"
	"kairos/internal/workload"
)

func TestTraceReturnsEveryQueryInArrivalOrder(t *testing.T) {
	spec := rm2Spec(cloud.Config{2, 0, 2})
	queries := Trace(spec, FCFSAny{}, Options{RatePerSec: 30, DurationMS: 5000, Seed: 21})
	if len(queries) == 0 {
		t.Fatal("empty trace")
	}
	prev := -1.0
	for i, q := range queries {
		if q.ID != i {
			t.Fatalf("query %d has ID %d", i, q.ID)
		}
		if q.ArrivalMS < prev {
			t.Fatal("trace not in arrival order")
		}
		prev = q.ArrivalMS
		if q.Instance < 0 {
			t.Fatalf("query %d unserved", i)
		}
		if q.FinishMS < q.StartMS || q.StartMS < q.ArrivalMS {
			t.Fatalf("query %d has inconsistent times: %+v", i, q)
		}
		if q.Latency() <= 0 {
			t.Fatalf("query %d latency %v", i, q.Latency())
		}
	}
}

func TestBusyAccountingConservation(t *testing.T) {
	spec := rm2Spec(cloud.Config{1, 1, 1})
	res := Run(spec, FCFSAny{}, Options{RatePerSec: 10, DurationMS: 20000, Seed: 22})
	served := 0
	for _, n := range res.ServedByType {
		served += n
	}
	if served != res.TotalQueries {
		t.Fatalf("served %d of %d queries across types", served, res.TotalQueries)
	}
	// Busy time per type must equal the sum of that type's service times;
	// with the deterministic surface we can cross-check via the trace.
	queries := Trace(spec, FCFSAny{}, Options{RatePerSec: 10, DurationMS: 20000, Seed: 22})
	types := spec.InstanceTypes()
	want := map[string]float64{}
	for _, q := range queries {
		want[types[q.Instance]] += q.FinishMS - q.StartMS
	}
	for tn, ms := range want {
		if math.Abs(res.BusyMSByType[tn]-ms) > 1e-6 {
			t.Fatalf("%s busy %v, want %v", tn, res.BusyMSByType[tn], ms)
		}
	}
}

// TestServiceTimesMatchOracle checks that every query's in-service time is
// exactly the ground-truth latency (no engine distortion).
func TestServiceTimesMatchOracle(t *testing.T) {
	spec := rm2Spec(cloud.Config{2, 1, 1})
	queries := Trace(spec, &LeastLoaded{}, Options{RatePerSec: 25, DurationMS: 8000, Seed: 23})
	types := spec.InstanceTypes()
	for _, q := range queries {
		want := spec.Model.Latency(types[q.Instance], q.Batch)
		if math.Abs((q.FinishMS-q.StartMS)-want) > 1e-9 {
			t.Fatalf("query %d service %v, want %v", q.ID, q.FinishMS-q.StartMS, want)
		}
	}
}

// TestAllowableThroughputMonotoneInQoS: relaxing the QoS target can only
// raise the allowable throughput.
func TestAllowableThroughputMonotoneInQoS(t *testing.T) {
	t.Parallel()
	m := models.MustByName("RM2")
	cfg := cloud.Config{2, 0, 3}
	opts := FindOptions{ProbeQueries: 800, Seed: 24, PrecisionFrac: 0.06}
	strict := FindAllowableThroughput(ClusterSpec{Pool: cloud.ThreeTypePool(), Config: cfg, Model: m},
		Static(FCFSAny{}), opts)
	relaxed := FindAllowableThroughput(ClusterSpec{Pool: cloud.ThreeTypePool(), Config: cfg, Model: m.WithQoS(m.QoS * 1.5)},
		Static(FCFSAny{}), opts)
	if relaxed < strict {
		t.Fatalf("relaxed QoS %v below strict %v", relaxed, strict)
	}
}

// TestOracleInvariantUnderSeed: ORCL throughput is a long-run property, so
// two seeds must agree within sampling noise.
func TestOracleInvariantUnderSeed(t *testing.T) {
	spec := rm2Spec(cloud.Config{2, 1, 3})
	a := OracleThroughput(spec, OracleOptions{Queries: 20000, Seed: 1})
	b := OracleThroughput(spec, OracleOptions{Queries: 20000, Seed: 2})
	if math.Abs(a-b)/a > 0.05 {
		t.Fatalf("oracle unstable across seeds: %v vs %v", a, b)
	}
}

// TestOracleDominatesSimulatedPolicies: the clairvoyant scheduler must
// upper-bound every implementable policy on random configurations.
func TestOracleDominatesSimulatedPolicies(t *testing.T) {
	t.Parallel()
	pool := cloud.ThreeTypePool()
	m := models.MustByName("RM2")
	rng := rand.New(rand.NewSource(25))
	var configs []cloud.Config
	for _, c := range pool.Enumerate(2.5) {
		if c.Base() >= 1 {
			configs = append(configs, c)
		}
	}
	for trial := 0; trial < 5; trial++ {
		cfg := configs[rng.Intn(len(configs))]
		spec := ClusterSpec{Pool: pool, Config: cfg, Model: m}
		orcl := OracleThroughput(spec, OracleOptions{Queries: 15000, Seed: 25})
		measured := FindAllowableThroughput(spec, Static(FCFSAny{}), FindOptions{
			ProbeQueries: 800, Seed: 25, PrecisionFrac: 0.06,
		})
		if measured > orcl*1.05 {
			t.Fatalf("%v: FCFS %v exceeds oracle %v", cfg, measured, orcl)
		}
	}
}

// TestEngineHandlesSimultaneousArrivals: queries arriving at the same
// instant coalesce into one scheduling round and all get served.
func TestEngineHandlesSimultaneousArrivals(t *testing.T) {
	spec := rm2Spec(cloud.Config{2, 0, 0})
	arrivals := make([]workload.Arrival, 6)
	for i := range arrivals {
		arrivals[i] = workload.Arrival{AtMS: 5, Batch: 50 + i}
	}
	res := Run(spec, FCFSAny{}, Options{Arrivals: arrivals})
	if res.TotalQueries != 6 || res.Measured.Count != 6 {
		t.Fatalf("result %+v", res)
	}
}

// TestProbeQueriesAdaptiveDuration: with ProbeQueries set, measuring a
// fast model must not take proportionally longer virtual horizons.
func TestProbeQueriesAdaptiveDuration(t *testing.T) {
	t.Parallel()
	pool := cloud.DefaultPool()
	m := models.MustByName("NCF") // thousands of QPS
	spec := ClusterSpec{Pool: pool, Config: cloud.Config{2, 0, 2, 0}, Model: m}
	qps := FindAllowableThroughput(spec, Static(FCFSAny{}), FindOptions{
		ProbeQueries: 600, Seed: 26, PrecisionFrac: 0.08,
	})
	if qps < 500 {
		t.Fatalf("NCF allowable throughput = %v, expected thousands", qps)
	}
}

// TestFCFSAssignmentsValidProperty fuzzes FCFSAny's assignments for
// structural validity.
func TestFCFSAssignmentsValidProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	f := func(nq, ni uint8) bool {
		m := int(nq%8) + 1
		n := int(ni%6) + 1
		waiting := make([]QueryView, m)
		for i := range waiting {
			waiting[i] = QueryView{Index: i, Batch: rng.Intn(1000) + 1}
		}
		instances := make([]InstanceView, n)
		for i := range instances {
			instances[i] = InstanceView{Index: i, TypeName: "g4dn.xlarge"}
			if rng.Intn(2) == 0 {
				instances[i].RemainingMS = 5
			}
		}
		got := FCFSAny{}.Assign(0, waiting, instances)
		seenQ := map[int]bool{}
		seenI := map[int]bool{}
		for _, a := range got {
			if a.Query < 0 || a.Query >= m || a.Instance < 0 || a.Instance >= n {
				return false
			}
			if seenQ[a.Query] || seenI[a.Instance] {
				return false
			}
			seenQ[a.Query] = true
			seenI[a.Instance] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestServiceNoiseStatistics checks the noise Fig. 16b injects: service
// times stay positive and scatter around the clean latency with the
// spec's standard-deviation fraction.
func TestServiceNoiseStatistics(t *testing.T) {
	spec := rm2Spec(cloud.Config{1, 0, 0})
	spec.Noise, spec.NoiseSeed = 0.05, 123
	service := spec.serviceTimes()
	inst := cloud.G4dnXlarge.Name
	base := spec.Model.Latency(inst, 200)
	n := 20000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := service(inst, 200)
		if v <= 0 {
			t.Fatal("noisy latency must stay positive")
		}
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumSq/float64(n) - mean*mean)
	if math.Abs(mean-base)/base > 0.01 {
		t.Fatalf("noisy mean %v deviates from base %v", mean, base)
	}
	if math.Abs(std/base-0.05) > 0.01 {
		t.Fatalf("noise std fraction = %v, want ~0.05", std/base)
	}
}

// TestNoiseIsCommonRandomNumbers: every run of a noisy spec draws the
// same noise, so measuring one spec twice gives one answer and a search's
// probes differ only in their rate, as FindOptions.Seed promises.
func TestNoiseIsCommonRandomNumbers(t *testing.T) {
	spec := ClusterSpec{Pool: cloud.ThreeTypePool(), Config: cloud.Config{2, 0, 9},
		Model: models.MustByName("DIEN"), Noise: 0.05, NoiseSeed: 49}
	opts := FindOptions{ProbeQueries: 1500, Seed: 42, PrecisionFrac: 0.02}
	first := FindAllowableThroughput(spec, Static(FCFSAny{}), opts)
	if again := FindAllowableThroughput(spec, Static(FCFSAny{}), opts); again != first {
		t.Fatalf("one noisy spec measured %v, then %v", first, again)
	}
	orcl := OracleOptions{Queries: 5000, Seed: 42}
	if a, b := OracleThroughput(spec, orcl), OracleThroughput(spec, orcl); a != b {
		t.Fatalf("one noisy spec's ORCL read %v, then %v", a, b)
	}
	a := Trace(spec, &LeastLoaded{}, Options{RatePerSec: 200, DurationMS: 3000, Seed: 7})
	b := Trace(spec, &LeastLoaded{}, Options{RatePerSec: 200, DurationMS: 3000, Seed: 7})
	for i := range a {
		if *a[i] != *b[i] {
			t.Fatalf("query %d served as %+v, then %+v", i, *a[i], *b[i])
		}
	}
}
