// Package kairos is a from-scratch reproduction of "Kairos: Building
// Cost-Efficient Machine Learning Inference Systems with Heterogeneous
// Cloud Resources" (HPDC 2023): a runtime framework that maximizes
// inference query throughput under a QoS tail-latency target and a cost
// budget by (1) distributing queries over heterogeneous cloud instances
// with min-cost bipartite matching and (2) choosing the heterogeneous
// configuration in one shot from throughput upper bounds, with no online
// exploration.
//
// The public surface is the Engine, built with functional options and
// exposing the paper's full lifecycle:
//
//	engine, err := kairos.New(
//		kairos.WithPool(kairos.DefaultPool()),
//		kairos.WithModels("RM2"),
//		kairos.WithBudget(2.5),
//		kairos.WithPolicy("kairos+warm"),
//	)
//	cfg, err := engine.Plan()                    // one-shot planning (Sec. 5.2)
//	ctrl, err := engine.Connect(1, addrs)        // live query distribution (Sec. 5.1)
//	qps, err := engine.AllowableThroughput(cfg)  // simulation (Sec. 7)
//	ap, err := engine.Autopilot(1, kairos.AutopilotOptions{}) // live fleet + drift adaptation (Fig. 12)
//
// Distribution policies — the paper's mechanism and the competing schemes —
// are data: they live in a named registry (RegisterPolicy, Policies,
// NewPolicy), so tools select them via -policy flags and downstream code
// extends the set without touching this package.
//
// See DESIGN.md for the architecture and the system inventory.
package kairos

import (
	"kairos/internal/cloud"
	"kairos/internal/core"
	"kairos/internal/models"
	"kairos/internal/sim"
	"kairos/internal/workload"
)

// Re-exported core types. The facade aliases them so applications never
// import internal packages.
type (
	// Pool is an ordered set of instance types; index 0 is the base type.
	Pool = cloud.Pool
	// Config is a heterogeneous configuration: instance counts per type.
	Config = cloud.Config
	// InstanceType describes one rentable instance type.
	InstanceType = cloud.InstanceType
	// Model is one serving workload: QoS target plus latency surface.
	Model = models.Model
	// BatchDistribution samples query batch sizes.
	BatchDistribution = workload.BatchDistribution
	// Distributor is a query-distribution policy.
	Distributor = sim.Distributor
	// DistributorFactory builds fresh policy instances per evaluation run.
	DistributorFactory = sim.DistributorFactory
	// QueryView is the read-only projection of a waiting query handed to
	// distributors; downstream policies implement Distributor against it.
	QueryView = sim.QueryView
	// InstanceView is the read-only projection of an instance handed to
	// distributors.
	InstanceView = sim.InstanceView
	// Assignment dispatches waiting query Query to instance Instance.
	Assignment = sim.Assignment
	// Observer optionally receives ground-truth service feedback after each
	// query completes (see sim.Observer).
	Observer = sim.Observer
	// RankedConfig pairs a configuration with its throughput upper bound.
	RankedConfig = core.RankedConfig
	// PlusResult reports a Kairos+ pruning search.
	PlusResult = core.SearchResult
	// Result summarizes one simulation run.
	Result = sim.Result
)

// DefaultPool returns the paper's 4-type heterogeneous pool (Table 4).
func DefaultPool() Pool { return cloud.DefaultPool() }

// Models returns the five production models of Table 3.
func Models() []Model { return models.Catalog() }

// ModelByName looks up a catalog model.
func ModelByName(name string) (Model, error) { return models.ByName(name) }

// DefaultTrace returns the trace-like batch-size mix driving the default
// evaluation.
func DefaultTrace() BatchDistribution { return workload.DefaultTrace() }

// RunOptions configure Engine.Evaluate.
type RunOptions struct {
	// RatePerSec is the Poisson arrival rate (queries per second).
	RatePerSec float64
	// DurationMS is the arrival horizon in virtual milliseconds.
	DurationMS float64
	// WarmupMS excludes the initial transient from measurement.
	WarmupMS float64
	// Seed fixes the random streams; Engine.Evaluate defaults 0 to the
	// engine seed.
	Seed int64
	// Batches overrides the default trace-like batch mix.
	Batches BatchDistribution
}
