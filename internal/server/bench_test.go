package server

import (
	"sync/atomic"
	"testing"

	"kairos/internal/cloud"
	"kairos/internal/models"
	"kairos/internal/sim"
)

// The wire codec in both hot directions: request encode is the
// controller's per-dispatch cost, reply decode its per-completion cost.

func BenchmarkFrameEncodeRequestBinary(b *testing.B) {
	req := Request{ID: 123456789, Model: "NCF", Batch: 750}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = AppendRequestFrame(buf[:0], req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameDecodeReplyBinary(b *testing.B) {
	rep := Reply{ID: 123456789, ServiceMS: 1.348}
	frame, err := AppendReplyFrame(nil, rep)
	if err != nil {
		b.Fatal(err)
	}
	payload := frame[4:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := DecodeReplyFrame(payload)
		if err != nil {
			b.Fatal(err)
		}
		if out.ID != rep.ID {
			b.Fatalf("decode mismatch: %+v", out)
		}
	}
}

// runThroughput runs closed-loop submitters on every P against the
// cluster, each alternating models by worker index. ops/sec is the
// sustained Submit→complete throughput the serving layer can carry;
// allocs/op is the whole-process allocation cost per served query
// (controller + instance servers).
func runThroughput(b *testing.B, cluster *BenchCluster) {
	var worker int64
	b.SetParallelism(32) // enough in-flight load to fill deep per-instance pipelines
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := atomic.AddInt64(&worker, 1)
		model := cluster.ModelNames[w%2]
		batch := 1 + int(w%8)*20
		for pb.Next() {
			if res := cluster.Ctrl.SubmitWait(model, batch); res.Err != nil {
				b.Error(res.Err)
				return
			}
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

// benchBringUp times what a fleet of n costs to bring up: NewMultiController
// over n already-listening instance servers — dial, handshake, admit — for
// one model group under the matching policy. Linear in n: the dials overlap
// and no membership change walks the fleet.
func benchBringUp(b *testing.B, n int) {
	m := models.MustByName("NCF")
	types := []string{cloud.G4dnXlarge.Name, cloud.R5nLarge.Name}
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = startServer(b, types[i%2], benchScale).Addr()
	}
	groups := map[string]GroupSpec{m.Name: {Policy: kairosPolicy(m, types), Predict: m.Latency}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl, err := NewMultiController(groups, benchScale, addrs)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		ctrl.Close()
		b.StartTimer()
	}
}

func BenchmarkControllerBringUp8(b *testing.B)  { benchBringUp(b, 8) }
func BenchmarkControllerBringUp32(b *testing.B) { benchBringUp(b, 32) }
