package pop

import (
	"testing"

	"kairos/internal/cloud"
	"kairos/internal/core"
	"kairos/internal/models"
	"kairos/internal/predictor"
	"kairos/internal/sim"
)

func kairosFactory(m models.Model, pool cloud.Pool) Factory {
	names := make([]string, len(pool))
	for i, t := range pool {
		names[i] = t.Name
	}
	return func(int) sim.Distributor {
		return core.NewDistributor(core.DistributorOptions{
			QoS:       m.QoS,
			BaseType:  pool.Base().Name,
			Predictor: predictor.Warmed(m.Latency, names, []int{1, 500, 1000}),
		})
	}
}

func TestNewPartitionedValidation(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("k=0 must panic")
			}
		}()
		NewPartitioned(0, func(int) sim.Distributor { return sim.FCFSAny{} })
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil inner must panic")
			}
		}()
		NewPartitioned(2, func(int) sim.Distributor { return nil })
	}()
}

func TestPartitionedName(t *testing.T) {
	p := NewPartitioned(4, func(int) sim.Distributor { return sim.FCFSAny{} })
	if p.Name() != "POP-4x(FCFS)" || p.Partitions() != 4 {
		t.Fatalf("name=%s partitions=%d", p.Name(), p.Partitions())
	}
}

func TestSingletonDelegates(t *testing.T) {
	m := models.MustByName("RM2")
	pool := cloud.ThreeTypePool()
	inner := kairosFactory(m, pool)
	direct := inner(0)
	wrapped := NewPartitioned(1, inner)
	waiting := []sim.QueryView{{Index: 0, ID: 0, Batch: 100}}
	instances := []sim.InstanceView{
		{Index: 0, TypeName: "g4dn.xlarge"},
		{Index: 1, TypeName: "r5n.large"},
	}
	a := direct.Assign(0, waiting, instances)
	b := wrapped.Assign(0, waiting, instances)
	if len(a) != len(b) || a[0] != b[0] {
		t.Fatalf("k=1 must be transparent: %v vs %v", a, b)
	}
}

// TestPartitionsIsolateQueries: with two partitions, a query hashed to
// partition 0 must never land on a partition-1 instance.
func TestPartitionsIsolateQueries(t *testing.T) {
	m := models.MustByName("RM2")
	pool := cloud.ThreeTypePool()
	p := NewPartitioned(2, kairosFactory(m, pool))
	// Two GPUs: round-robin puts instance 0 in partition 0, instance 1 in
	// partition 1; same for the CPUs.
	instances := []sim.InstanceView{
		{Index: 0, TypeName: "g4dn.xlarge"},
		{Index: 1, TypeName: "g4dn.xlarge"},
		{Index: 2, TypeName: "r5n.large"},
		{Index: 3, TypeName: "r5n.large"},
	}
	for id := 0; id < 8; id++ {
		got := p.Assign(0, []sim.QueryView{{Index: 0, ID: id, Batch: 900}}, instances)
		if len(got) != 1 {
			t.Fatalf("id %d: assignments %v", id, got)
		}
		wantPart := id % 2
		gotPart := got[0].Instance % 2 // by construction of the round-robin
		if gotPart != wantPart {
			t.Fatalf("id %d landed on instance %d (partition %d), want partition %d",
				id, got[0].Instance, gotPart, wantPart)
		}
	}
}

// TestPartitionedEndToEnd runs the partitioned controller through the full
// simulator: every query is served and throughput stays within a modest
// factor of the monolithic controller (POP's claim: near-equal quality at
// a fraction of the solve cost).
func TestPartitionedEndToEnd(t *testing.T) {
	t.Parallel()
	m := models.MustByName("RM2")
	pool := cloud.ThreeTypePool()
	cfg := cloud.Config{2, 0, 10} // 12 instances: splits evenly
	spec := sim.ClusterSpec{Pool: pool, Config: cfg, Model: m}
	opts := sim.FindOptions{ProbeQueries: 1200, Seed: 31, PrecisionFrac: 0.05}

	mono := sim.FindAllowableThroughput(spec, func() sim.Distributor {
		return NewPartitioned(1, kairosFactory(m, pool))
	}, opts)
	duo := sim.FindAllowableThroughput(spec, func() sim.Distributor {
		return NewPartitioned(2, kairosFactory(m, pool))
	}, opts)
	if duo < mono*0.75 {
		t.Fatalf("2-way partitioning lost too much: %v vs monolithic %v", duo, mono)
	}
	if duo > mono*1.1 {
		t.Fatalf("partitioning should not beat the monolith: %v vs %v", duo, mono)
	}
}

// TestPartitionedMatchingCost verifies the point of POP: per-round Assign
// over k partitions touches k smaller matchings. We check it indirectly:
// both variants produce valid full-cluster assignments for a big round.
func TestPartitionedBigRoundValidity(t *testing.T) {
	m := models.MustByName("RM2")
	pool := cloud.ThreeTypePool()
	p := NewPartitioned(4, kairosFactory(m, pool))
	var waiting []sim.QueryView
	for i := 0; i < 32; i++ {
		waiting = append(waiting, sim.QueryView{Index: i, ID: i, Batch: 10 + i*7})
	}
	var instances []sim.InstanceView
	for i := 0; i < 16; i++ {
		tn := "r5n.large"
		if i < 4 {
			tn = "g4dn.xlarge"
		}
		instances = append(instances, sim.InstanceView{Index: i, TypeName: tn})
	}
	got := p.Assign(0, waiting, instances)
	seenQ := map[int]bool{}
	seenI := map[int]bool{}
	for _, a := range got {
		if a.Query < 0 || a.Query >= len(waiting) || a.Instance < 0 || a.Instance >= len(instances) {
			t.Fatalf("out of range assignment %v", a)
		}
		if seenQ[a.Query] || seenI[a.Instance] {
			t.Fatalf("duplicate in merged assignments: %v", got)
		}
		seenQ[a.Query] = true
		seenI[a.Instance] = true
	}
	if len(got) < 8 {
		t.Fatalf("merged round too small: %d assignments", len(got))
	}
}

func TestObserveFansOut(t *testing.T) {
	count := 0
	p := NewPartitioned(3, func(int) sim.Distributor { return &countingObserver{n: &count} })
	p.Observe("g4dn.xlarge", 10, 5)
	if count != 3 {
		t.Fatalf("observed %d times, want 3", count)
	}
}

type countingObserver struct{ n *int }

func (c *countingObserver) Name() string { return "counting" }
func (c *countingObserver) Assign(float64, []sim.QueryView, []sim.InstanceView) []sim.Assignment {
	return nil
}
func (c *countingObserver) Observe(string, int, float64) { *c.n++ }

// drainRounds plays scheduling rounds over always-idle instances until
// every query with the given arrival IDs is assigned, the way the
// controller compacts its waiting list between rounds, and fails the test
// if a query is still waiting after one round per query.
func drainRounds(t *testing.T, p *Partitioned, types []string, ids []int) {
	t.Helper()
	instances := make([]sim.InstanceView, len(types))
	for i, tn := range types {
		instances[i] = sim.InstanceView{Index: i, TypeName: tn}
	}
	waiting := append([]int(nil), ids...)
	for round := 0; round < len(ids) && len(waiting) > 0; round++ {
		views := make([]sim.QueryView, len(waiting))
		for i, id := range waiting {
			views[i] = sim.QueryView{Index: i, ID: id, Batch: 10}
		}
		taken := make([]bool, len(waiting))
		usedInst := map[int]bool{}
		for _, a := range p.Assign(float64(round), views, instances) {
			if a.Query < 0 || a.Query >= len(waiting) || taken[a.Query] {
				t.Fatalf("fleet %v round %d: bad or repeated query in %v", types, round, a)
			}
			if a.Instance < 0 || a.Instance >= len(instances) || usedInst[a.Instance] {
				t.Fatalf("fleet %v round %d: bad or repeated instance in %v", types, round, a)
			}
			taken[a.Query], usedInst[a.Instance] = true, true
		}
		next := waiting[:0]
		for i, id := range waiting {
			if !taken[i] {
				next = append(next, id)
			}
		}
		waiting = next
	}
	if len(waiting) > 0 {
		t.Fatalf("fleet %v: queries %v were never assigned", types, waiting)
	}
}

// TestPartitionedNeverStrandsQueries is the starvation regression: a
// partition with no instance — a fleet smaller than k, or one the live
// controller shrank and renumbered — must not keep the queries hashed to
// it waiting forever.
func TestPartitionedNeverStrandsQueries(t *testing.T) {
	const gpu, cpu = "g4dn.xlarge", "r5n.large"
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	fcfs := func(int) sim.Distributor { return sim.FCFSAny{} }

	// k=4 over 3 instances: partitions 2 and 3 never get one.
	drainRounds(t, NewPartitioned(4, fcfs), []string{gpu, cpu, cpu}, ids)

	// One distributor across a fleet that shrinks, renumbers and regrows,
	// as AddInstance/RemoveInstance do to the controller's view.
	p := NewPartitioned(2, fcfs)
	for _, fleet := range [][]string{
		{gpu, gpu, cpu, cpu},
		{gpu, cpu, cpu}, // first GPU removed: everything shifts down one index
		{gpu},           // partition 1 is empty
		{gpu, cpu},      // a CPU joins at a recycled index
		{cpu},           // the GPU drains
		{cpu, gpu, gpu},
	} {
		drainRounds(t, p, fleet, ids)
	}
}
