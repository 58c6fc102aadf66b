// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. 4 motivation and Sec. 8). Each experiment is a function
// returning a typed result that renders as an ASCII table; kairosctl bench
// runs them from the command line and bench_test.go runs scaled-down
// versions under `go test -bench`.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"kairos/internal/cloud"
	"kairos/internal/core"
	"kairos/internal/distributor"
	"kairos/internal/models"
	"kairos/internal/predictor"
	"kairos/internal/sim"
	"kairos/internal/workload"
)

// Scale bundles the fidelity knobs shared by all experiments.
type Scale struct {
	// Seed drives every random stream.
	Seed int64
	// ProbeQueries sizes each throughput probe run.
	ProbeQueries int
	// PrecisionFrac terminates the allowable-throughput bisection.
	PrecisionFrac float64
	// OracleQueries sizes the ORCL sequence.
	OracleQueries int
	// MonitorSamples sizes the batch-mix snapshot fed to the estimator
	// (the paper tracks ~10000 recent queries).
	MonitorSamples int
	// Budget is the cost cap in $/hr (the paper's default is 2.5).
	Budget float64
}

// FullScale is the paper-fidelity setting, the one kairosctl bench runs.
func FullScale() Scale {
	return Scale{Seed: 42, ProbeQueries: 4000, PrecisionFrac: 0.02, OracleQueries: 20000, MonitorSamples: 10000, Budget: 2.5}
}

// Env is the per-model experimental setup.
type Env struct {
	Scale Scale
	Pool  cloud.Pool
	Model models.Model
	// Batches is the batch-size distribution (default trace-like mix).
	Batches workload.BatchDistribution
	// Noise, when positive, perturbs the service times the simulated
	// cloud delivers (sim.ClusterSpec.Noise; Fig. 16b uses 0.05).
	Noise float64
}

// NewEnv builds the default environment for a model.
func NewEnv(scale Scale, pool cloud.Pool, model models.Model) Env {
	return Env{Scale: scale, Pool: pool, Model: model, Batches: workload.DefaultTrace()}
}

// Samples draws the monitor snapshot the planner consumes.
func (e Env) Samples() []int {
	rng := rand.New(rand.NewSource(e.Scale.Seed + 1000))
	out := make([]int, e.Scale.MonitorSamples)
	for i := range out {
		out[i] = e.Batches.Sample(rng)
	}
	return out
}

// Estimator builds the upper-bound estimator from the monitor snapshot.
func (e Env) Estimator() *core.Estimator {
	est, err := core.NewEstimator(e.Pool, e.Model, e.Samples())
	if err != nil {
		panic(err)
	}
	return est
}

// Spec assembles a cluster spec for a configuration.
func (e Env) Spec(cfg cloud.Config) sim.ClusterSpec {
	return sim.ClusterSpec{Pool: e.Pool, Config: cfg, Model: e.Model, Noise: e.Noise, NoiseSeed: e.Scale.Seed + 7}
}

// KairosFactory builds fresh Kairos distributors with a warmed latency
// model.
func (e Env) KairosFactory() sim.DistributorFactory {
	return func() sim.Distributor {
		return core.NewDistributor(core.DistributorOptions{
			QoS:       e.Model.QoS,
			BaseType:  e.Pool.Base().Name,
			Predictor: core.WarmedPredictor(e.Pool, e.Model),
		})
	}
}

// baselineOptions are shared by the competing schemes; the paper grants
// them accurate latency predictions.
func (e Env) baselineOptions() distributor.Options {
	return distributor.Options{
		QoS:       e.Model.QoS,
		BaseType:  e.Pool.Base().Name,
		Predictor: predictor.Oracle{Latency: e.Model.Latency},
	}
}

// RibbonFactory builds Ribbon FCFS distributors.
func (e Env) RibbonFactory() sim.DistributorFactory {
	return func() sim.Distributor { return distributor.NewRibbon(e.baselineOptions()) }
}

// ClockworkFactory builds CLKWRK distributors.
func (e Env) ClockworkFactory() sim.DistributorFactory {
	return func() sim.Distributor { return distributor.NewClockwork(e.baselineOptions()) }
}

// DRSFactory builds DRS distributors with a fixed threshold.
func (e Env) DRSFactory(threshold int) sim.DistributorFactory {
	return func() sim.Distributor { return distributor.NewDRS(e.baselineOptions(), threshold) }
}

// findOptions assembles the throughput-finder options.
func (e Env) findOptions() sim.FindOptions {
	return sim.FindOptions{
		ProbeQueries:  e.Scale.ProbeQueries,
		Seed:          e.Scale.Seed,
		Batches:       e.Batches,
		PrecisionFrac: e.Scale.PrecisionFrac,
	}
}

// Measure returns the allowable throughput of cfg under the given factory.
func (e Env) Measure(cfg cloud.Config, factory sim.DistributorFactory) float64 {
	return sim.FindAllowableThroughput(e.Spec(cfg), factory, e.findOptions())
}

// TuneDRS hill-climbs the DRS threshold for a configuration and returns the
// tuned threshold, its throughput, and the tuning evaluations spent.
func (e Env) TuneDRS(cfg cloud.Config) (threshold int, qps float64, evals int) {
	eval := func(t int) float64 { return e.Measure(cfg, e.DRSFactory(t)) }
	return distributor.TuneDRSThreshold(eval, 150, 75, models.MaxBatch)
}

// OracleQPS evaluates the clairvoyant ORCL throughput of cfg.
func (e Env) OracleQPS(cfg cloud.Config) float64 {
	return sim.OracleThroughput(e.Spec(cfg), sim.OracleOptions{
		Queries: e.Scale.OracleQueries,
		Seed:    e.Scale.Seed,
		Batches: e.Batches,
	})
}

// OracleBest exhaustively finds the ORCL-optimal configuration, the config
// the paper grants the competing schemes (Sec. 8.2).
func (e Env) OracleBest() (cloud.Config, float64) {
	return sim.OracleSearch(e.Pool, e.Model, e.Scale.Budget, sim.OracleOptions{
		Queries: e.Scale.OracleQueries,
		Seed:    e.Scale.Seed,
		Batches: e.Batches,
	})
}

// HomogeneousQPS measures the optimal homogeneous configuration's
// throughput, scaled up to spend the full budget (Sec. 8.1's conservative
// accounting in homogeneous serving's favor).
func (e Env) HomogeneousQPS() float64 {
	hom := e.Pool.Homogeneous(e.Scale.Budget)
	return e.Measure(hom, e.KairosFactory()) * e.Pool.HomogeneousScale(e.Scale.Budget)
}

// renderTable formats rows of cells with padded columns.
func renderTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
