package core

import (
	"testing"

	"kairos/internal/cloud"
	"kairos/internal/models"
	"kairos/internal/predictor"
	"kairos/internal/sim"
)

// TestLateBindingEligibility verifies the slack gate: instances whose
// in-flight work extends past lateBindSlackMS are invisible to the
// matching.
func TestLateBindingEligibility(t *testing.T) {
	pool := cloud.ThreeTypePool()
	m := models.MustByName("RM2")
	d := NewDistributor(DistributorOptions{
		QoS: m.QoS, BaseType: pool.Base().Name,
		Predictor: predictor.Warmed(m.Latency, instanceNames(pool), []int{1, 1000}),
	})
	waiting := []sim.QueryView{{Index: 0, Batch: 100}}
	busyFar := []sim.InstanceView{{Index: 0, TypeName: "g4dn.xlarge", RemainingMS: 200}}

	if got := d.Assign(0, waiting, busyFar); len(got) != 0 {
		t.Fatalf("the slack must hold for a 200ms-busy instance: %v", got)
	}
}

// TestAgingPromotesStarvedQueries: with one slot and two queries, the
// cheaper (smaller) query wins when waits are equal, but sufficient
// accumulated wait flips the match to the older query.
func TestAgingPromotesStarvedQueries(t *testing.T) {
	pool := cloud.ThreeTypePool()
	m := models.MustByName("RM2")
	d := kairosFor(m, pool)
	gpu := []sim.InstanceView{{Index: 0, TypeName: "g4dn.xlarge"}}
	fresh := []sim.QueryView{
		{Index: 0, Batch: 600, WaitMS: 0}, // costlier on the GPU
		{Index: 1, Batch: 10, WaitMS: 0},
	}
	got := d.Assign(0, fresh, gpu)
	if len(got) != 1 || got[0].Query != 1 {
		t.Fatalf("equal waits: the cheaper query should win: %v", got)
	}
	aged := []sim.QueryView{
		{Index: 0, Batch: 600, WaitMS: 120}, // has waited much longer
		{Index: 1, Batch: 10, WaitMS: 0},
	}
	got = d.Assign(0, aged, gpu)
	if len(got) != 1 || got[0].Query != 0 {
		t.Fatalf("aged large query must be promoted: %v", got)
	}
}

// TestDoomedQueryForceDispatch: a query that can no longer meet QoS
// anywhere must still be dispatched (liveness) to the fastest-clearing
// instance.
func TestDoomedQueryForceDispatch(t *testing.T) {
	pool := cloud.ThreeTypePool()
	m := models.MustByName("RM2")
	d := kairosFor(m, pool)
	// Waited longer than xi*QoS: doomed everywhere.
	doomed := []sim.QueryView{{Index: 0, Batch: 100, WaitMS: 400}}
	idle := []sim.InstanceView{
		{Index: 0, TypeName: "r5n.large"},
		{Index: 1, TypeName: "g4dn.xlarge"},
	}
	got := d.Assign(0, doomed, idle)
	if len(got) != 1 {
		t.Fatalf("doomed query must still be dispatched: %v", got)
	}
	// The GPU (85.5ms) clears batch 100 faster than r5n (132ms); the
	// fastest-clearing instance must win.
	if got[0].Instance != 1 {
		t.Fatalf("doomed query should clear on the fastest instance: %v", got)
	}
}
