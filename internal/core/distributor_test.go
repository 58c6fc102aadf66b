package core

import (
	"math"
	"testing"

	"kairos/internal/cloud"
	"kairos/internal/models"
	"kairos/internal/predictor"
	"kairos/internal/sim"
	"kairos/internal/workload"
)

func kairosFor(m models.Model, pool cloud.Pool) *Distributor {
	return NewDistributor(DistributorOptions{
		QoS:      m.QoS,
		BaseType: pool.Base().Name,
		Predictor: predictor.Warmed(m.Latency,
			instanceNames(pool), []int{1, 500, models.MaxBatch}),
	})
}

func instanceNames(pool cloud.Pool) []string {
	out := make([]string, len(pool))
	for i, t := range pool {
		out[i] = t.Name
	}
	return out
}

func TestNewDistributorValidation(t *testing.T) {
	cases := []DistributorOptions{
		{QoS: 0, BaseType: "x"},
		{QoS: 10, BaseType: ""},
		{QoS: 10, BaseType: "x", Xi: 1.5},
		{QoS: 10, BaseType: "x", Xi: -0.1},
		{QoS: 10, BaseType: "x", PenaltyFactor: 0.5},
	}
	for i, opts := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			NewDistributor(opts)
		}()
	}
}

func TestDistributorDefaults(t *testing.T) {
	d := NewDistributor(DistributorOptions{QoS: 100, BaseType: "g4dn.xlarge"})
	if d.Name() != "KAIROS" {
		t.Fatalf("name = %s", d.Name())
	}
	if d.opts.Xi != DefaultXi || d.opts.PenaltyFactor != DefaultPenaltyFactor {
		t.Fatalf("defaults not applied: %+v", d.opts)
	}
	if d.Predictor() == nil {
		t.Fatal("nil predictor")
	}
}

// TestCoefficientsMatchDefinition1 checks the worked example under Def. 1:
// largest-query latencies 100/200/500ms yield C = 1, 0.5, 0.2.
func TestCoefficientsMatchDefinition1(t *testing.T) {
	p := predictor.NewOnline()
	p.Observe("I1", models.MaxBatch, 100)
	p.Observe("I2", models.MaxBatch, 200)
	p.Observe("I3", models.MaxBatch, 500)
	d := NewDistributor(DistributorOptions{QoS: 100, BaseType: "I1", Predictor: p})
	cases := map[string]float64{"I1": 1, "I2": 0.5, "I3": 0.2}
	for inst, want := range cases {
		if got := d.Coefficient(inst); math.Abs(got-want) > 1e-9 {
			t.Errorf("C[%s] = %v, want %v", inst, got, want)
		}
	}
}

func TestCoefficientBoundsAndFallbacks(t *testing.T) {
	p := predictor.NewOnline()
	d := NewDistributor(DistributorOptions{QoS: 100, BaseType: "base", Predictor: p})
	// No data: neutral coefficient.
	if got := d.Coefficient("aux"); got != 1 {
		t.Fatalf("cold coefficient = %v, want 1", got)
	}
	// An auxiliary faster than base at max batch clamps to 1 (Def. 1's
	// codomain is (0,1]).
	p.Observe("base", models.MaxBatch, 200)
	p.Observe("aux", models.MaxBatch, 100)
	if got := d.Coefficient("aux"); got != 1 {
		t.Fatalf("clamped coefficient = %v, want 1", got)
	}
	// Disabled coefficients are always 1.
	d2 := NewDistributor(DistributorOptions{QoS: 100, BaseType: "base", Predictor: p, DisableCoefficients: true})
	p.Observe("slow", models.MaxBatch, 1000)
	if got := d2.Coefficient("slow"); got != 1 {
		t.Fatalf("disabled coefficient = %v, want 1", got)
	}
}

// TestAssignPrefersSpeedupAwarePlacement reproduces the essence of Fig. 5:
// with one large and one small query waiting and a GPU + CPU both idle,
// Kairos must put the large query (high CPU->GPU speedup) on the GPU and
// the small one on the CPU.
func TestAssignPrefersSpeedupAwarePlacement(t *testing.T) {
	pool := cloud.ThreeTypePool()
	m := models.MustByName("RM2")
	d := kairosFor(m, pool)
	waiting := []sim.QueryView{
		{Index: 0, Batch: 900}, // large
		{Index: 1, Batch: 20},  // small
	}
	instances := []sim.InstanceView{
		{Index: 0, TypeName: "g4dn.xlarge"},
		{Index: 1, TypeName: "r5n.large"},
	}
	got := d.Assign(0, waiting, instances)
	if len(got) != 2 {
		t.Fatalf("assignments = %v", got)
	}
	placed := map[int]int{}
	for _, a := range got {
		placed[a.Query] = a.Instance
	}
	if placed[0] != 0 || placed[1] != 1 {
		t.Fatalf("large query must take the GPU, small the CPU: %v", placed)
	}
}

// TestAssignAvoidsQoSViolatingPlacement: a batch too large for the CPU's
// QoS region must not be placed there while the GPU remains feasible. With
// the GPU about to free (within the late-bind slack) it is matched there;
// while the GPU is further out, the query is held rather than violating on
// the idle CPU.
func TestAssignAvoidsQoSViolatingPlacement(t *testing.T) {
	pool := cloud.ThreeTypePool()
	m := models.MustByName("RM2")
	d := kairosFor(m, pool)
	waiting := []sim.QueryView{{Index: 0, Batch: 800}} // r5n: 50+624 >> 343
	nearlyFree := []sim.InstanceView{
		{Index: 0, TypeName: "g4dn.xlarge", RemainingMS: 8}, // within slack, feasible
		{Index: 1, TypeName: "r5n.large"},                   // idle but infeasible
	}
	got := d.Assign(0, waiting, nearlyFree)
	if len(got) != 1 || got[0].Instance != 0 {
		t.Fatalf("assignments = %v, want GPU despite finishing work", got)
	}
	farOut := []sim.InstanceView{
		{Index: 0, TypeName: "g4dn.xlarge", RemainingMS: 100}, // beyond slack
		{Index: 1, TypeName: "r5n.large"},
	}
	got = d.Assign(0, waiting, farOut)
	if len(got) != 0 {
		t.Fatalf("assignments = %v, want hold for the GPU (not violate on CPU)", got)
	}
}

// TestAssignRespectsWaitTime: accumulated queue wait W_i tightens Eq. 5 —
// a query that already waited most of its budget must not be matched to a
// slow placement.
func TestAssignRespectsWaitTime(t *testing.T) {
	pool := cloud.ThreeTypePool()
	m := models.MustByName("RM2") // QoS 350
	d := kairosFor(m, pool)
	// r5n latency for batch 200 is 9+270 = 279ms. Fresh query: feasible.
	fresh := d.Assign(0,
		[]sim.QueryView{{Index: 0, Batch: 200, WaitMS: 0}},
		[]sim.InstanceView{{Index: 0, TypeName: "r5n.large"}})
	if len(fresh) != 1 {
		t.Fatalf("fresh query should be assigned: %v", fresh)
	}
	// After waiting 100ms, 279+100 > 0.98*350 = 343: penalized everywhere,
	// but the matching still dispatches it (penalty, not exclusion) since
	// there is capacity — min-cost just cannot find a feasible spot.
	stale := d.Assign(0,
		[]sim.QueryView{{Index: 0, Batch: 200, WaitMS: 100}},
		[]sim.InstanceView{{Index: 0, TypeName: "r5n.large"}})
	if len(stale) != 1 {
		t.Fatalf("stale query must still be dispatched: %v", stale)
	}
}

// flipPredictor answers the first question about a (type, batch) with a
// latency past any deadline and every later one with 1ms, counting them:
// the extreme of a noisy predictor that draws afresh on every call.
type flipPredictor struct{ asked map[string]map[int]int }

func (p *flipPredictor) Predict(instance string, batch int) float64 {
	if p.asked[instance] == nil {
		p.asked[instance] = map[int]int{}
	}
	p.asked[instance][batch]++
	if p.asked[instance][batch] == 1 {
		return 1e6
	}
	return 1
}

func (p *flipPredictor) Observe(string, int, float64) {}

// TestAssignOnePredictionPerPairPerRound: the round asks the predictor once
// per (type, query) and the held/doomed decision reads the same row as the
// matrix. Were feasibleSlotExists to ask again, it would be told 1ms and
// hold queries the matrix had just priced as serveable nowhere.
func TestAssignOnePredictionPerPairPerRound(t *testing.T) {
	pred := &flipPredictor{asked: map[string]map[int]int{}}
	d := NewDistributor(DistributorOptions{QoS: 100, BaseType: "gpu", Predictor: pred, DisableCoefficients: true})
	waiting := []sim.QueryView{{Index: 0, Batch: 10}, {Index: 1, Batch: 20}, {Index: 2, Batch: 30}}
	instances := []sim.InstanceView{
		{Index: 0, TypeName: "gpu"}, {Index: 1, TypeName: "gpu"}, {Index: 2, TypeName: "cpu"},
	}
	if got := d.Assign(0, waiting, instances); len(got) != len(waiting) {
		t.Fatalf("dispatched %v, want all %d doomed queries cleared", got, len(waiting))
	}
	for typ, batches := range pred.asked {
		for batch, n := range batches {
			if n != 1 {
				t.Errorf("asked %d times about batch %d on %s in one round", n, batch, typ)
			}
		}
	}
}

func TestAssignSkipsInstancesWithPendingWork(t *testing.T) {
	pool := cloud.ThreeTypePool()
	m := models.MustByName("RM2")
	d := kairosFor(m, pool)
	waiting := []sim.QueryView{{Index: 0, Batch: 10}}
	instances := []sim.InstanceView{
		{Index: 0, TypeName: "g4dn.xlarge", QueuedBatches: []int{50}}, // slot full
	}
	if got := d.Assign(0, waiting, instances); got != nil {
		t.Fatalf("assigned to an instance with a pending query: %v", got)
	}
}

func TestAssignMoreQueriesThanInstances(t *testing.T) {
	pool := cloud.ThreeTypePool()
	m := models.MustByName("RM2")
	d := kairosFor(m, pool)
	waiting := make([]sim.QueryView, 5)
	for i := range waiting {
		waiting[i] = sim.QueryView{Index: i, Batch: 50 + 100*i}
	}
	instances := []sim.InstanceView{
		{Index: 0, TypeName: "g4dn.xlarge"},
		{Index: 1, TypeName: "c5n.2xlarge"},
	}
	got := d.Assign(0, waiting, instances)
	if len(got) != 2 {
		t.Fatalf("matched %d pairs, want min(m,n)=2 (Eq. 7)", len(got))
	}
	seenQ := map[int]bool{}
	seenI := map[int]bool{}
	for _, a := range got {
		if seenQ[a.Query] || seenI[a.Instance] {
			t.Fatalf("one-to-one mapping violated: %v", got)
		}
		seenQ[a.Query] = true
		seenI[a.Instance] = true
	}
}

func TestObserveFeedsMonitorAndPredictor(t *testing.T) {
	mon := workload.NewMonitor(100)
	d := NewDistributor(DistributorOptions{QoS: 100, BaseType: "b", Monitor: mon})
	d.Observe("b", 42, 13.5)
	if mon.Count() != 1 {
		t.Fatal("monitor not fed")
	}
	if got := d.Predictor().Predict("b", 42); got != 13.5 {
		t.Fatalf("predictor not fed: %v", got)
	}
}

// TestKairosBeatsFCFSInSimulation is the end-to-end sanity check of the
// mechanism: on a heterogeneous pool under the default mix, Kairos's
// allowable throughput must beat naive FCFS (Fig. 5's 33% story).
func TestKairosBeatsFCFSInSimulation(t *testing.T) {
	t.Parallel()
	pool := cloud.ThreeTypePool()
	m := models.MustByName("RM2")
	spec := sim.ClusterSpec{Pool: pool, Config: cloud.Config{2, 1, 3}, Model: m}
	opts := sim.FindOptions{DurationMS: 30000, Seed: 30, PrecisionFrac: 0.05}
	kairosQPS := sim.FindAllowableThroughput(spec, func() sim.Distributor {
		return kairosFor(m, pool)
	}, opts)
	fcfsQPS := sim.FindAllowableThroughput(spec, sim.Static(sim.FCFSAny{}), opts)
	if kairosQPS <= fcfsQPS {
		t.Fatalf("Kairos %v QPS must beat FCFS %v QPS", kairosQPS, fcfsQPS)
	}
}

// TestKairosLearnsOnlineFromColdStart runs Kairos with a cold predictor:
// after the warmup window its measured performance must approach the
// warmed predictor variant (the paper's "includes this overhead" remark).
func TestKairosLearnsOnlineFromColdStart(t *testing.T) {
	t.Parallel()
	pool := cloud.ThreeTypePool()
	m := models.MustByName("RM2")
	spec := sim.ClusterSpec{Pool: pool, Config: cloud.Config{2, 1, 3}, Model: m}
	rate := 30.0
	cold := sim.Run(spec, NewDistributor(DistributorOptions{QoS: m.QoS, BaseType: pool.Base().Name}),
		sim.Options{RatePerSec: rate, DurationMS: 60000, WarmupMS: 20000, Seed: 31})
	warm := sim.Run(spec, kairosFor(m, pool),
		sim.Options{RatePerSec: rate, DurationMS: 60000, WarmupMS: 20000, Seed: 31})
	if !warm.MeetsQoS {
		t.Fatalf("warmed Kairos violates QoS at %v QPS: %+v", rate, warm.Measured)
	}
	if !cold.MeetsQoS {
		t.Fatalf("cold-start Kairos did not converge: p99=%v vs QoS %v", cold.P99, m.QoS)
	}
}
