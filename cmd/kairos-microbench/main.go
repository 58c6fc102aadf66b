// Command kairos-microbench runs the repository's perf-critical
// microbenchmarks — the workspace assignment solver (the matching
// distributor's inner loop), the matching-distributor Assign hot path (the
// controller's per-round scheduling cost), the shared-budget fleet
// allocator, the live serving path (wire-frame encode/decode and loopback
// Submit→complete throughput through the sharded controller, under the
// plumbing-only LeastBacklog policy and under the paper's kairos+warm), the
// flight-recorder hot paths (histogram record and trace stamping), and
// the ingress hot path (external Submit→complete over HTTP and binary
// TCP) —
// via testing.Benchmark and writes the results as machine-readable JSON,
// so CI can track the performance trajectory commit over commit.
//
// Usage:
//
//	kairos-microbench -out BENCH_micro.json [-benchtime 0.5s]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"kairos"
	"kairos/internal/assignment"
	"kairos/internal/ingress"
	"kairos/internal/obs"
	"kairos/internal/server"
)

// result is one benchmark's digest.
type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// report is the BENCH_micro.json document.
type report struct {
	GoVersion string    `json:"go_version"`
	GOOS      string    `json:"goos"`
	GOARCH    string    `json:"goarch"`
	CPUs      int       `json:"cpus"`
	When      time.Time `json:"when"`
	Results   []result  `json:"results"`
}

// randomMatrix builds a reproducible dense cost matrix.
func randomMatrix(r, c int, seed int64) assignment.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := assignment.NewMatrix(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.Float64()*100)
		}
	}
	return m
}

// solverBench benchmarks the workspace JV solver, as the distributor
// holds it, on an n x n matrix.
func solverBench(n int) func(*testing.B) {
	return func(b *testing.B) {
		m := randomMatrix(n, n, 42)
		var w assignment.Workspace
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := w.Solve(m); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// assignBench benchmarks the engine policy's Assign round: q waiting
// queries of the trace mix against n heterogeneous instances.
func assignBench(q, n int) func(*testing.B) {
	return func(b *testing.B) {
		engine, err := kairos.New(
			kairos.WithPool(kairos.DefaultPool()),
			kairos.WithModelName("RM2"),
			kairos.WithPolicy("kairos+warm"),
		)
		if err != nil {
			b.Fatal(err)
		}
		d, err := engine.Serve()
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(42))
		mix := kairos.DefaultTrace()
		pool := engine.Pool()
		queries := make([]kairos.QueryView, q)
		for i := range queries {
			queries[i] = kairos.QueryView{Index: i, ID: i, Batch: mix.Sample(rng), WaitMS: rng.Float64() * 5}
		}
		instances := make([]kairos.InstanceView, n)
		for i := range instances {
			instances[i] = kairos.InstanceView{Index: i, TypeName: pool[i%len(pool)].Name}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Assign(float64(i), queries, instances)
		}
	}
}

// planFleetBench benchmarks the shared-budget allocator for two models.
func planFleetBench() func(*testing.B) {
	return func(b *testing.B) {
		rng := rand.New(rand.NewSource(42))
		mix := kairos.DefaultTrace()
		samples := make([]int, 2000)
		for i := range samples {
			samples[i] = mix.Sample(rng)
		}
		rm2, err := kairos.ModelByName("RM2")
		if err != nil {
			b.Fatal(err)
		}
		ncf, err := kairos.ModelByName("NCF")
		if err != nil {
			b.Fatal(err)
		}
		demands := []kairos.ModelDemand{
			{Model: rm2, Samples: samples},
			{Model: ncf, Samples: samples},
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := kairos.PlanFleetFor(kairos.DefaultPool(), demands, 2.5); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchFleetDemands builds n catalog-model twins with 2000-sample trace
// windows each — the fleet-allocator benchmarks' common input shape.
func benchFleetDemands(n int) []kairos.ModelDemand {
	rng := rand.New(rand.NewSource(42))
	cat := kairos.Models()
	mix := kairos.DefaultTrace()
	out := make([]kairos.ModelDemand, n)
	for i := range out {
		samples := make([]int, 2000)
		for j := range samples {
			samples[j] = mix.Sample(rng)
		}
		m := cat[i%len(cat)]
		m.Name = fmt.Sprintf("bench-%03d", i)
		out[i] = kairos.ModelDemand{Model: m, Samples: samples}
	}
	return out
}

// planFleet100Bench benchmarks a full 100-model replan through a warm
// incremental planner: every window is refingerprinted (none moved) and
// the greedy allocation reruns. CI holds this at or below the seed's
// 2-model from-scratch time.
func planFleet100Bench() func(*testing.B) {
	return func(b *testing.B) {
		demands := benchFleetDemands(100)
		planner, err := kairos.NewFleetPlanner(kairos.DefaultPool(), 2.5)
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
}

// planFleetOneDirtyBench benchmarks the autopilot's single-trigger path:
// 1 of 100 sample windows moved, replanned via ReplanModel. Pays one
// estimator reset and frontier rebuild plus the greedy rerun.
func planFleetOneDirtyBench() func(*testing.B) {
	return func(b *testing.B) {
		demands := benchFleetDemands(100)
		planner, err := kairos.NewFleetPlanner(kairos.DefaultPool(), 2.5)
		if err != nil {
			b.Fatal(err)
		}
		if err := planner.SetDemands(demands); err != nil {
			b.Fatal(err)
		}
		if _, err := planner.Plan(2.5); err != nil {
			b.Fatal(err)
		}
		// Alternate two windows for the dirty model so every iteration
		// really invalidates and rebuilds its frontier.
		dirty := demands[50]
		alt := benchFleetDemands(1)[0]
		windows := [2][]int{dirty.Samples, alt.Samples}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dirty.Samples = windows[i%2]
			if _, err := planner.ReplanModel(dirty, 2.5); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// frameBench wraps one shared wire-codec case (see
// server.FrameBenchCases: the same loops back the in-package benchmarks,
// so the BENCH_micro.json trajectory and `go test -bench` agree).
func frameBench(c server.FrameBenchCase) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		if err := c.Loop(b.N); err != nil {
			b.Fatal(err)
		}
	}
}

// obsBench wraps one shared flight-recorder case (see obs.BenchCases:
// the per-query tracing and histogram hot paths that ride the serving
// path must stay allocation-free and cheap).
func obsBench(c obs.BenchCase) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		c.Loop(b.N)
	}
}

// kairosWarm builds the paper's warmed matching policy for one model of
// the serving-path fixture (its instance types are the default pool's).
func kairosWarm(m kairos.Model, _ []string) kairos.Distributor {
	d, err := kairos.NewPolicy("kairos+warm", kairos.PolicyContext{Pool: kairos.DefaultPool(), Model: m})
	if err != nil {
		log.Fatal(err)
	}
	return d
}

// controllerThroughputBench drives closed-loop submitters through the
// shared serving-path fixture (server.StartBenchCluster: 2 models x 2
// loopback instance servers each): ns/op is the sustained Submit→complete
// cost of the whole live path. A nil mkPolicy measures the plumbing alone
// under LeastBacklog; kairosWarm adds the matching round users run.
func controllerThroughputBench(mkPolicy func(kairos.Model, []string) kairos.Distributor) func(*testing.B) {
	return func(b *testing.B) {
		cluster, err := server.StartBenchCluster(1e-6, mkPolicy)
		if err != nil {
			b.Fatal(err)
		}
		defer cluster.Close()
		var worker int64
		b.SetParallelism(32)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			w := atomic.AddInt64(&worker, 1)
			if err := cluster.Worker(w, pb.Next); err != nil {
				b.Error(err)
			}
		})
	}
}

// ingressBench drives closed-loop external submitters through the shared
// ingress fixture (ingress.StartBenchIngress: the serving-path bench
// cluster behind an HTTP + binary-TCP front-end): ns/op is the sustained
// external Submit→complete cost of the whole path, front-end included.
func ingressBench(tcp bool) func(*testing.B) {
	return ingressBenchSharded(tcp, 0)
}

// ingressBenchSharded is ingressBench over a front door split into the
// given number of accept/admission shards.
func ingressBenchSharded(tcp bool, shards int) func(*testing.B) {
	return func(b *testing.B) {
		fix, err := ingress.StartBenchIngressSharded(1e-6, shards)
		if err != nil {
			b.Fatal(err)
		}
		defer fix.Close()
		var worker int64
		b.SetParallelism(16)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			w := atomic.AddInt64(&worker, 1)
			var err error
			if tcp {
				err = fix.TCPWorker(w, pb.Next)
			} else {
				err = fix.HTTPWorker(w, pb.Next)
			}
			if err != nil {
				b.Error(err)
			}
		})
	}
}

func main() {
	testing.Init() // registers test.benchtime, which testing.Benchmark reads
	out := flag.String("out", "BENCH_micro.json", "output JSON path (- for stdout)")
	benchtime := flag.Duration("benchtime", 500*time.Millisecond, "target run time per benchmark")
	flag.Parse()

	benches := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"JV16", solverBench(16)},
		{"JV64", solverBench(64)},
		{"DistributorAssign8x4", assignBench(8, 4)},
		{"DistributorAssign32x8", assignBench(32, 8)},
		{"DistributorAssign64x16", assignBench(64, 16)},
		{"DistributorAssign1000x16", assignBench(1000, 16)},
		{"PlanFleet2Models", planFleetBench()},
		{"PlanFleet100Models", planFleet100Bench()},
		{"PlanFleetIncrementalOneDirty", planFleetOneDirtyBench()},
	}
	for _, c := range server.FrameBenchCases() {
		benches = append(benches, struct {
			name string
			fn   func(*testing.B)
		}{c.Name, frameBench(c)})
	}
	for _, c := range obs.BenchCases() {
		benches = append(benches, struct {
			name string
			fn   func(*testing.B)
		}{c.Name, obsBench(c)})
	}
	benches = append(benches, struct {
		name string
		fn   func(*testing.B)
	}{"ControllerThroughput", controllerThroughputBench(nil)})
	benches = append(benches, struct {
		name string
		fn   func(*testing.B)
	}{"ControllerThroughputKairosPolicy", controllerThroughputBench(kairosWarm)})
	benches = append(benches, struct {
		name string
		fn   func(*testing.B)
	}{"IngressSubmitTCP", ingressBench(true)})
	benches = append(benches, struct {
		name string
		fn   func(*testing.B)
	}{"IngressSubmitHTTP", ingressBench(false)})
	benches = append(benches, struct {
		name string
		fn   func(*testing.B)
	}{"IngressSubmitTCPSharded", ingressBenchSharded(true, 4)})

	rep := report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		When:      time.Now().UTC(),
	}
	if f := flag.Lookup("test.benchtime"); f != nil {
		f.Value.Set(benchtime.String())
	}
	for _, bench := range benches {
		r := testing.Benchmark(bench.fn)
		rep.Results = append(rep.Results, result{
			Name:        bench.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
		fmt.Fprintf(os.Stderr, "%-24s %10d iters %12.0f ns/op %8d B/op %6d allocs/op\n",
			bench.name, r.N, float64(r.T.Nanoseconds())/float64(r.N), r.AllocedBytesPerOp(), r.AllocsPerOp())
	}

	payload, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	payload = append(payload, '\n')
	if *out == "-" {
		os.Stdout.Write(payload)
		return
	}
	if err := os.WriteFile(*out, payload, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "kairos-microbench: wrote %s\n", *out)
}
