package server

import (
	"sync/atomic"
	"testing"

	"kairos/internal/models"
	"kairos/internal/sim"
)

// BenchmarkFrames measures the wire codec in both hot directions —
// request encode (per-dispatch) and reply decode (per-completion). The
// cases are shared with cmd/kairos-microbench so BENCH_micro.json tracks
// exactly these loops.
func BenchmarkFrames(b *testing.B) {
	for _, c := range FrameBenchCases() {
		b.Run(c.Name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			if err := c.Loop(b.N); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// runThroughput runs closed-loop submitters on every P against the
// cluster. ops/sec is the sustained Submit→complete throughput the serving
// layer can carry; allocs/op is the whole-process allocation cost per
// served query (controller + instance servers).
func runThroughput(b *testing.B, cluster *BenchCluster) {
	var worker int64
	b.SetParallelism(32) // enough in-flight load to fill deep per-instance pipelines
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := atomic.AddInt64(&worker, 1)
		if err := cluster.Worker(w, pb.Next); err != nil {
			b.Error(err)
		}
	})
}

// benchScale compresses emulated service to ~ns so the wire + scheduler
// path is the measured cost, not the sleep.
const benchScale = 1e-6

// BenchmarkControllerThroughput is the serving-path headline: the whole
// live path on loopback (2 models, 4 instance servers) under the
// zero-alloc LeastBacklog policy, so the wire format, locking, and
// scheduling machinery are what is measured.
func BenchmarkControllerThroughput(b *testing.B) {
	cluster, err := StartBenchCluster(benchScale, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cluster.Close)
	runThroughput(b, cluster)
}

// BenchmarkControllerThroughputKairosPolicy is the same loop under the
// real matching policy: serving path plus per-round Assign cost.
func BenchmarkControllerThroughputKairosPolicy(b *testing.B) {
	cluster, err := StartBenchCluster(benchScale, func(m models.Model, types []string) sim.Distributor {
		return kairosPolicy(m, types)
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cluster.Close)
	runThroughput(b, cluster)
}
