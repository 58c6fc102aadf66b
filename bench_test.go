package kairos_test

import (
	"fmt"
	"math/rand"
	"testing"

	"kairos/internal/cloud"
	"kairos/internal/core"
	"kairos/internal/experiments"
	"kairos/internal/models"
	"kairos/internal/pop"
	"kairos/internal/predictor"
	"kairos/internal/sim"
	"kairos/internal/workload"
)

// benchScale keeps per-iteration work bounded so `go test -bench=.`
// finishes in minutes; kairosctl bench -scale full regenerates the
// paper-fidelity numbers.
func benchScale() experiments.Scale {
	return experiments.Scale{Seed: 42, ProbeQueries: 800, PrecisionFrac: 0.08,
		OracleQueries: 4000, MonitorSamples: 3000, Budget: 2.5}
}

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	scale := benchScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, scale); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper table/figure: running them regenerates every
// artifact of the evaluation at reduced fidelity.

func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkFig1(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }

func BenchmarkFig13(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		experiments.Fig13(scale, 8)
	}
}

func BenchmarkFig14(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		experiments.Fig14(scale, 6)
	}
}

func BenchmarkFig15(b *testing.B) { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B) { benchExperiment(b, "fig16") }

// --- Sec. 6 overhead claims ---

// BenchmarkControllerMatching20x20 measures one full Kairos scheduling
// decision for 20 queries over 20 instances: L-matrix construction,
// coefficients, and the Jonker-Volgenant solve. The paper reports the
// matching plus network delay within 0.05ms.
func BenchmarkControllerMatching20x20(b *testing.B) {
	benchControllerMatching(b, 20, 20)
}

// BenchmarkControllerMatching200x20 covers "hundreds of queries arriving
// concurrently ... well within 1ms".
func BenchmarkControllerMatching200x20(b *testing.B) {
	benchControllerMatching(b, 200, 20)
}

func benchControllerMatching(b *testing.B, m, n int) {
	b.Helper()
	pool := cloud.DefaultPool()
	model := models.MustByName("RM2")
	names := make([]string, len(pool))
	for i, t := range pool {
		names[i] = t.Name
	}
	d := core.NewDistributor(core.DistributorOptions{
		QoS:       model.QoS,
		BaseType:  pool.Base().Name,
		Predictor: predictor.Warmed(model.Latency, names, []int{1, 500, 1000}),
	})
	rng := rand.New(rand.NewSource(1))
	mix := workload.DefaultTrace()
	waiting := make([]sim.QueryView, m)
	for i := range waiting {
		waiting[i] = sim.QueryView{Index: i, Batch: mix.Sample(rng)}
	}
	instances := make([]sim.InstanceView, n)
	for i := range instances {
		instances[i] = sim.InstanceView{Index: i, TypeName: names[i%len(names)]}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Assign(0, waiting, instances)
	}
}

// BenchmarkUpperBoundRanking measures ranking the paper's order-1000
// configuration space by upper bound; the paper budgets under 2 seconds
// for it (Sec. 5.2) and this implementation is orders of magnitude faster.
func BenchmarkUpperBoundRanking(b *testing.B) {
	env := experiments.NewEnv(benchScale(), cloud.DefaultPool(), models.MustByName("RM2"))
	samples := env.Samples()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, err := core.NewEstimator(cloud.DefaultPool(), models.MustByName("RM2"), samples, core.EstimatorOptions{})
		if err != nil {
			b.Fatal(err)
		}
		ranked := est.Rank(2.5)
		if len(ranked) < 500 {
			b.Fatalf("space size %d", len(ranked))
		}
	}
}

// BenchmarkSimulatorEvents measures the raw discrete-event engine rate.
func BenchmarkSimulatorEvents(b *testing.B) {
	spec := sim.ClusterSpec{
		Pool:   cloud.ThreeTypePool(),
		Config: cloud.Config{2, 1, 3},
		Model:  models.MustByName("RM2"),
	}
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		res := sim.Run(spec, sim.FCFSAny{}, sim.Options{
			RatePerSec: 60, DurationMS: 10000, Seed: int64(i),
		})
		total += res.TotalQueries
	}
	b.ReportMetric(float64(total)/float64(b.N), "queries/op")
}

// --- Design-choice ablations (DESIGN.md Sec. 3) ---

// ablationMeasure evaluates RM2 on a fixed heterogeneous configuration
// under a Kairos variant and reports the allowable throughput as a custom
// metric, so `-bench Ablation` doubles as a sensitivity study.
func ablationMeasure(b *testing.B, mutate func(*core.DistributorOptions)) {
	b.Helper()
	pool := cloud.DefaultPool()
	model := models.MustByName("RM2")
	names := make([]string, len(pool))
	for i, t := range pool {
		names[i] = t.Name
	}
	spec := sim.ClusterSpec{Pool: pool, Config: cloud.Config{1, 0, 13, 0}, Model: model}
	factory := func() sim.Distributor {
		opts := core.DistributorOptions{
			QoS:       model.QoS,
			BaseType:  pool.Base().Name,
			Predictor: predictor.Warmed(model.Latency, names, []int{1, 500, 1000}),
		}
		mutate(&opts)
		return core.NewDistributor(opts)
	}
	var qps float64
	for i := 0; i < b.N; i++ {
		qps = sim.FindAllowableThroughput(spec, factory, sim.FindOptions{
			ProbeQueries: 800, Seed: 42, PrecisionFrac: 0.08,
		})
	}
	b.ReportMetric(qps, "allowableQPS")
}

// BenchmarkAblationBaseline is the tuned default configuration.
func BenchmarkAblationBaseline(b *testing.B) {
	ablationMeasure(b, func(*core.DistributorOptions) {})
}

// BenchmarkAblationNoCoefficients drops Def. 1's heterogeneity weighting.
func BenchmarkAblationNoCoefficients(b *testing.B) {
	ablationMeasure(b, func(o *core.DistributorOptions) { o.DisableCoefficients = true })
}

// BenchmarkAblationPenalty2x weakens the Eq. 8 penalty from 10x to 2x.
func BenchmarkAblationPenalty2x(b *testing.B) {
	ablationMeasure(b, func(o *core.DistributorOptions) { o.PenaltyFactor = 2 })
}

// BenchmarkAblationPenalty100x strengthens the Eq. 8 penalty to 100x.
func BenchmarkAblationPenalty100x(b *testing.B) {
	ablationMeasure(b, func(o *core.DistributorOptions) { o.PenaltyFactor = 100 })
}

// BenchmarkAblationXi90 widens the noise safeguard from 2% to 10%.
func BenchmarkAblationXi90(b *testing.B) {
	ablationMeasure(b, func(o *core.DistributorOptions) { o.Xi = 0.90 })
}

// BenchmarkAblationNoAging removes the W_i starvation-avoidance term.
func BenchmarkAblationNoAging(b *testing.B) {
	ablationMeasure(b, func(o *core.DistributorOptions) { o.AgingFactor = -1 })
}

// BenchmarkAblationNoLateBinding lets the matching commit to any busy
// instance (the literal Eq. 4 setup).
func BenchmarkAblationNoLateBinding(b *testing.B) {
	ablationMeasure(b, func(o *core.DistributorOptions) { o.LateBindSlackMS = -1 })
}

// BenchmarkAblationDeepPending allows three queued queries per instance.
func BenchmarkAblationDeepPending(b *testing.B) {
	ablationMeasure(b, func(o *core.DistributorOptions) { o.MaxPending = 3 })
}

// BenchmarkAblationSimilarityMetric compares the one-shot pick under the
// Euclidean SSE criterion against the rejected cosine variant, reporting
// each pick's measured throughput.
func BenchmarkAblationSimilarityMetric(b *testing.B) {
	env := experiments.NewEnv(benchScale(), cloud.DefaultPool(), models.MustByName("RM2"))
	ranked := env.Estimator().Rank(2.5)
	var euclid, cos float64
	for i := 0; i < b.N; i++ {
		euclid = env.Measure(core.SelectOneShot(ranked), env.KairosFactory())
		cos = env.Measure(core.SelectOneShotCosine(ranked), env.KairosFactory())
	}
	b.ReportMetric(euclid, "euclideanQPS")
	b.ReportMetric(cos, "cosineQPS")
}

// BenchmarkPOPMatchingScaling compares one monolithic matching round
// against the POP-partitioned controller on a large round (Sec. 6's
// scaling remark): k partitions solve k much smaller assignments.
func BenchmarkPOPMatchingScaling(b *testing.B) {
	pool := cloud.DefaultPool()
	model := models.MustByName("RM2")
	names := make([]string, len(pool))
	for i, t := range pool {
		names[i] = t.Name
	}
	mkInner := func(int) sim.Distributor {
		return core.NewDistributor(core.DistributorOptions{
			QoS:       model.QoS,
			BaseType:  pool.Base().Name,
			Predictor: predictor.Warmed(model.Latency, names, []int{1, 500, 1000}),
		})
	}
	rng := rand.New(rand.NewSource(9))
	mix := workload.DefaultTrace()
	const nq, ni = 128, 64
	waiting := make([]sim.QueryView, nq)
	for i := range waiting {
		waiting[i] = sim.QueryView{Index: i, ID: i, Batch: mix.Sample(rng)}
	}
	instances := make([]sim.InstanceView, ni)
	for i := range instances {
		instances[i] = sim.InstanceView{Index: i, TypeName: names[i%len(names)]}
	}
	for _, k := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("partitions=%d", k), func(b *testing.B) {
			d := pop.NewPartitioned(k, mkInner)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.Assign(0, waiting, instances)
			}
		})
	}
}
