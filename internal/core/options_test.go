package core

import (
	"testing"

	"kairos/internal/cloud"
	"kairos/internal/models"
	"kairos/internal/predictor"
	"kairos/internal/sim"
)

// TestLateBindingEligibility verifies the slack gate: instances whose
// in-flight work extends past LateBindSlackMS are invisible to the
// matching, and a negative slack restores the literal Eq. 4 behaviour.
func TestLateBindingEligibility(t *testing.T) {
	pool := cloud.ThreeTypePool()
	m := models.MustByName("RM2")
	mk := func(slack float64) *Distributor {
		return NewDistributor(DistributorOptions{
			QoS: m.QoS, BaseType: pool.Base().Name,
			Predictor:       predictor.Warmed(m.Latency, instanceNames(pool), []int{1, 1000}),
			LateBindSlackMS: slack,
		})
	}
	waiting := []sim.QueryView{{Index: 0, Batch: 100}}
	busyFar := []sim.InstanceView{{Index: 0, TypeName: "g4dn.xlarge", RemainingMS: 200}}

	if got := mk(DefaultLateBindSlackMS).Assign(0, waiting, busyFar); len(got) != 0 {
		t.Fatalf("default slack must hold for a 200ms-busy instance: %v", got)
	}
	if got := mk(-1).Assign(0, waiting, busyFar); len(got) != 1 {
		t.Fatalf("disabled late binding must match the busy instance: %v", got)
	}
}

// TestMaxPendingEligibility verifies the pending-depth gate.
func TestMaxPendingEligibility(t *testing.T) {
	pool := cloud.ThreeTypePool()
	m := models.MustByName("RM2")
	deep := NewDistributor(DistributorOptions{
		QoS: m.QoS, BaseType: pool.Base().Name,
		Predictor:  predictor.Warmed(m.Latency, instanceNames(pool), []int{1, 1000}),
		MaxPending: 2,
	})
	waiting := []sim.QueryView{{Index: 0, Batch: 50}}
	onePending := []sim.InstanceView{{Index: 0, TypeName: "g4dn.xlarge", QueuedBatches: []int{30}}}
	if got := deep.Assign(0, waiting, onePending); len(got) != 1 {
		t.Fatalf("MaxPending=2 must accept a second pending query: %v", got)
	}
	twoPending := []sim.InstanceView{{Index: 0, TypeName: "g4dn.xlarge", QueuedBatches: []int{30, 40}}}
	if got := deep.Assign(0, waiting, twoPending); len(got) != 0 {
		t.Fatalf("MaxPending=2 must reject a third pending query: %v", got)
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

// TestAgingDisabled: with aging off, the starved query keeps losing.
func TestAgingDisabled(t *testing.T) {
	pool := cloud.ThreeTypePool()
	m := models.MustByName("RM2")
	d := NewDistributor(DistributorOptions{
		QoS: m.QoS, BaseType: pool.Base().Name,
		Predictor:   predictor.Warmed(m.Latency, instanceNames(pool), []int{1, 1000}),
		AgingFactor: -1,
	})
	gpu := []sim.InstanceView{{Index: 0, TypeName: "g4dn.xlarge"}}
	aged := []sim.QueryView{
		{Index: 0, Batch: 600, WaitMS: 120},
		{Index: 1, Batch: 10, WaitMS: 0},
	}
	got := d.Assign(0, aged, gpu)
	if len(got) != 1 || got[0].Query != 1 {
		t.Fatalf("aging disabled: cheapest-first expected: %v", got)
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

// TestDisableCoefficientsChangesPlacement: without Def. 1 weighting, a
// small query with both GPU and CPU idle goes to the absolutely faster
// GPU; with weighting it goes to the cheap CPU.
func TestDisableCoefficientsChangesPlacement(t *testing.T) {
	pool := cloud.ThreeTypePool()
	// WND: the GPU (6.72ms at batch 20) is absolutely faster than r5n
	// (7.6ms), so only the C_j weighting sends the query to the CPU.
	m := models.MustByName("WND")
	weighted := kairosFor(m, pool)
	unweighted := NewDistributor(DistributorOptions{
		QoS: m.QoS, BaseType: pool.Base().Name,
		Predictor:           predictor.Warmed(m.Latency, instanceNames(pool), []int{1, 1000}),
		DisableCoefficients: true,
	})
	waiting := []sim.QueryView{{Index: 0, Batch: 20}}
	idle := []sim.InstanceView{
		{Index: 0, TypeName: "g4dn.xlarge"},
		{Index: 1, TypeName: "r5n.large"},
	}
	w := weighted.Assign(0, waiting, idle)
	u := unweighted.Assign(0, waiting, idle)
	if len(w) != 1 || len(u) != 1 {
		t.Fatalf("assignments: %v / %v", w, u)
	}
	if w[0].Instance != 1 {
		t.Fatalf("weighted matching should pick the CPU: %v", w)
	}
	if u[0].Instance != 0 {
		t.Fatalf("unweighted matching should pick the faster GPU: %v", u)
	}
}
