package distributor

import (
	"testing"

	"kairos/internal/cloud"
	"kairos/internal/models"
	"kairos/internal/predictor"
	"kairos/internal/sim"
	"kairos/internal/workload"
)

func rm2Options() Options {
	m := models.MustByName("RM2")
	return Options{
		QoS:       m.QoS,
		BaseType:  cloud.G4dnXlarge.Name,
		Predictor: predictor.Oracle{Latency: m.Latency},
	}
}

func idle(idx int, typeName string) sim.InstanceView {
	return sim.InstanceView{Index: idx, TypeName: typeName}
}

func busy(idx int, typeName string, remaining float64) sim.InstanceView {
	return sim.InstanceView{Index: idx, TypeName: typeName, RemainingMS: remaining}
}

func TestOptionsValidation(t *testing.T) {
	good := rm2Options()
	cases := []Options{
		{QoS: 0, BaseType: good.BaseType, Predictor: good.Predictor},
		{QoS: 1, BaseType: "", Predictor: good.Predictor},
		{QoS: 1, BaseType: "x", Predictor: nil},
	}
	for i, opts := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			NewRibbon(opts)
		}()
	}
}

func TestRibbonPrefersBase(t *testing.T) {
	r := NewRibbon(rm2Options())
	got := r.Assign(0,
		[]sim.QueryView{{Index: 0, Batch: 10}},
		[]sim.InstanceView{idle(0, "r5n.large"), idle(1, "g4dn.xlarge")})
	if len(got) != 1 || got[1-1].Instance != 1 {
		t.Fatalf("assignments = %v, want the base instance", got)
	}
}

func TestRibbonHoldsQoSInfeasiblePlacement(t *testing.T) {
	r := NewRibbon(rm2Options())
	// Batch 800 violates QoS on r5n (9+1080ms >> 350ms) and the base is
	// busy — Ribbon holds the query for the capable (base) type.
	got := r.Assign(0,
		[]sim.QueryView{{Index: 0, Batch: 800}},
		[]sim.InstanceView{idle(0, "r5n.large"), busy(1, "g4dn.xlarge", 50)})
	if len(got) != 0 {
		t.Fatalf("assignments = %v, want hold for the busy base", got)
	}
}

func TestRibbonLivenessWithoutCapableType(t *testing.T) {
	r := NewRibbon(rm2Options())
	// Aux-only cluster, batch 1000: no type can meet QoS; serve on the
	// fastest idle instance anyway to keep the system live (for RM2 the
	// r5n curve, 6+0.9b, beats c5n's 10+1.0b).
	got := r.Assign(0,
		[]sim.QueryView{{Index: 0, Batch: 1000}},
		[]sim.InstanceView{idle(0, "c5n.2xlarge"), idle(1, "r5n.large")})
	if len(got) != 1 || got[0].Instance != 1 {
		t.Fatalf("assignments = %v, want fastest idle aux (r5n)", got)
	}
}

func TestRibbonHeadOfLineBlocking(t *testing.T) {
	r := NewRibbon(rm2Options())
	// Everything busy: the head blocks and nothing is dispatched even
	// though more queries wait behind it.
	got := r.Assign(0,
		[]sim.QueryView{
			{Index: 0, Batch: 800},
			{Index: 1, Batch: 10},
		},
		[]sim.InstanceView{busy(0, "r5n.large", 10), busy(1, "g4dn.xlarge", 50)})
	if len(got) != 0 {
		t.Fatalf("assignments = %v, head-of-line must block", got)
	}
}

func TestRibbonSmallQueryTakesFastestFeasibleAux(t *testing.T) {
	r := NewRibbon(rm2Options())
	// No base idle; both CPUs meet QoS for batch 50: the faster (r5n for
	// RM2) wins.
	got := r.Assign(0,
		[]sim.QueryView{{Index: 0, Batch: 50}},
		[]sim.InstanceView{idle(0, "c5n.2xlarge"), idle(1, "r5n.large"), busy(2, "g4dn.xlarge", 10)})
	if len(got) != 1 || got[0].Instance != 1 {
		t.Fatalf("assignments = %v, want r5n", got)
	}
}

func TestRibbonName(t *testing.T) {
	if NewRibbon(rm2Options()).Name() != "RIBBON" {
		t.Fatal("bad name")
	}
}

func TestDRSRoutesByThreshold(t *testing.T) {
	d := NewDRS(rm2Options(), 200)
	got := d.Assign(0,
		[]sim.QueryView{
			{Index: 0, Batch: 500}, // > 200: base pool
			{Index: 1, Batch: 100}, // <= 200: aux pool
		},
		[]sim.InstanceView{idle(0, "g4dn.xlarge"), idle(1, "r5n.large")})
	if len(got) != 2 {
		t.Fatalf("assignments = %v", got)
	}
	placed := map[int]int{}
	for _, a := range got {
		placed[a.Query] = a.Instance
	}
	if placed[0] != 0 || placed[1] != 1 {
		t.Fatalf("routing wrong: %v", placed)
	}
}

func TestDRSLanesBlockIndependently(t *testing.T) {
	d := NewDRS(rm2Options(), 200)
	// Base busy: a large query blocks the base lane but the small query
	// behind it still flows to the aux lane.
	got := d.Assign(0,
		[]sim.QueryView{
			{Index: 0, Batch: 500},
			{Index: 1, Batch: 100},
		},
		[]sim.InstanceView{busy(0, "g4dn.xlarge", 60), idle(1, "r5n.large")})
	if len(got) != 1 || got[0].Query != 1 || got[0].Instance != 1 {
		t.Fatalf("assignments = %v, want only the aux-lane dispatch", got)
	}
}

func TestDRSIgnoresPerTypeQoS(t *testing.T) {
	// DRS's weakness (Sec. 8.2): a threshold admitting batches beyond a
	// weak auxiliary's own cutoff still routes them there.
	d := NewDRS(rm2Options(), 300)
	// t3.xlarge cutoff for RM2 is (350-11)/2.2 = 154; batch 250 violates.
	got := d.Assign(0,
		[]sim.QueryView{{Index: 0, Batch: 250}},
		[]sim.InstanceView{idle(0, "t3.xlarge"), idle(1, "g4dn.xlarge")})
	if len(got) != 1 || got[0].Instance != 0 {
		t.Fatalf("assignments = %v, DRS must follow its threshold blindly", got)
	}
}

func TestDRSPoolFallbacks(t *testing.T) {
	d := NewDRS(rm2Options(), 200)
	// No aux instances: small queries fall back to the base pool.
	got := d.Assign(0,
		[]sim.QueryView{{Index: 0, Batch: 10}},
		[]sim.InstanceView{idle(0, "g4dn.xlarge")})
	if len(got) != 1 || got[0].Instance != 0 {
		t.Fatalf("base fallback failed: %v", got)
	}
	// No base instances: large queries fall back to the aux pool.
	got = d.Assign(0,
		[]sim.QueryView{{Index: 0, Batch: 900}},
		[]sim.InstanceView{idle(0, "r5n.large")})
	if len(got) != 1 || got[0].Instance != 0 {
		t.Fatalf("aux fallback failed: %v", got)
	}
}

func TestDRSValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative threshold")
		}
	}()
	NewDRS(rm2Options(), -1)
}

func TestClockworkDispatchesEverything(t *testing.T) {
	c := NewClockwork(rm2Options())
	waiting := []sim.QueryView{
		{Index: 0, Batch: 100},
		{Index: 1, Batch: 200},
		{Index: 2, Batch: 300},
	}
	got := c.Assign(0, waiting, []sim.InstanceView{idle(0, "g4dn.xlarge"), idle(1, "c5n.2xlarge")})
	if len(got) != 3 {
		t.Fatalf("CLKWRK must dispatch all queries within queue depth: %v", got)
	}
}

func TestClockworkPicksQoSMeetingQueue(t *testing.T) {
	c := NewClockwork(rm2Options())
	// Batch 100: g4dn 67.5ms, c5n 110ms. Base busy for 300ms: completion
	// 367.5 > 350 QoS; idle c5n completes at 110 and meets QoS.
	got := c.Assign(0,
		[]sim.QueryView{{Index: 0, Batch: 100}},
		[]sim.InstanceView{busy(0, "g4dn.xlarge", 300), idle(1, "c5n.2xlarge")})
	if len(got) != 1 || got[0].Instance != 1 {
		t.Fatalf("assignments = %v, want the QoS-meeting CPU", got)
	}
}

func TestClockworkPicksEarliestCompletion(t *testing.T) {
	c := NewClockwork(rm2Options())
	// Batch 200: r5n finishes at 206ms, c5n at 250ms; earliest wins.
	got := c.Assign(0,
		[]sim.QueryView{{Index: 0, Batch: 200}},
		[]sim.InstanceView{idle(0, "c5n.2xlarge"), idle(1, "r5n.large")})
	if len(got) != 1 || got[0].Instance != 1 {
		t.Fatalf("assignments = %v, want the earliest completion (r5n)", got)
	}
}

func TestClockworkFallsBackToEarliest(t *testing.T) {
	c := NewClockwork(rm2Options())
	// Nothing meets QoS for batch 900 (base busy 400ms: 400+111.5 > 350;
	// r5n alone needs 816ms). Earliest completion must win: base at 511.5
	// versus r5n at 816.
	got := c.Assign(0,
		[]sim.QueryView{{Index: 0, Batch: 900}},
		[]sim.InstanceView{busy(0, "g4dn.xlarge", 400), idle(1, "r5n.large")})
	if len(got) != 1 || got[0].Instance != 0 {
		t.Fatalf("assignments = %v, want earliest completion", got)
	}
}

func TestClockworkAccountsIntraRoundLoad(t *testing.T) {
	c := NewClockwork(rm2Options())
	// Two identical queries, two idle identical instances: the second must
	// go to the other instance because the first consumed queue time.
	got := c.Assign(0,
		[]sim.QueryView{{Index: 0, Batch: 100}, {Index: 1, Batch: 100}},
		[]sim.InstanceView{idle(0, "g4dn.xlarge"), idle(1, "g4dn.xlarge")})
	if len(got) != 2 || got[0].Instance == got[1].Instance {
		t.Fatalf("assignments = %v, want spreading across instances", got)
	}
}

func TestClockworkDispatchesWholeLine(t *testing.T) {
	c := NewClockwork(rm2Options())
	// Four queries, one instance: every query goes straight onto the
	// per-instance FCFS queue (queries never wait centrally, Sec. 7).
	waiting := make([]sim.QueryView, 4)
	for i := range waiting {
		waiting[i] = sim.QueryView{Index: i, Batch: 100}
	}
	got := c.Assign(0, waiting, []sim.InstanceView{idle(0, "g4dn.xlarge")})
	if len(got) != 4 {
		t.Fatalf("dispatched %d, want 4", len(got))
	}
}

func TestTuneDRSThresholdUnimodal(t *testing.T) {
	// Peak at 400 on a concave curve.
	f := func(thr int) float64 {
		d := float64(thr - 400)
		return 1000 - d*d/100
	}
	best, bestVal, evals := TuneDRSThreshold(f, 100, 50, 1000)
	if best != 400 {
		t.Fatalf("best threshold = %d, want 400", best)
	}
	if bestVal != 1000 {
		t.Fatalf("best value = %v", bestVal)
	}
	if evals < 5 || evals > 20 {
		t.Fatalf("evals = %d, implausible for a hill climb", evals)
	}
}

func TestTuneDRSThresholdClamps(t *testing.T) {
	// Monotone increasing: must stop at maxBatch without overflow.
	f := func(thr int) float64 { return float64(thr) }
	best, _, _ := TuneDRSThreshold(f, 900, 100, 1000)
	if best != 1000 {
		t.Fatalf("best = %d, want clamp at 1000", best)
	}
	// Monotone decreasing: clamp at zero.
	g := func(thr int) float64 { return -float64(thr) }
	best, _, _ = TuneDRSThreshold(g, 100, 64, 1000)
	if best != 0 {
		t.Fatalf("best = %d, want clamp at 0", best)
	}
}

func TestTuneDRSThresholdPanicsOnBadStep(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TuneDRSThreshold(func(int) float64 { return 0 }, 0, 0, 1000)
}

// TestSchemesEndToEnd runs every baseline through the simulator on a
// heterogeneous pool and checks the paper's qualitative ordering at a
// moderate load: CLKWRK and DRS both dominate Ribbon (Sec. 8.2, "both DRS
// and CLKWRK outperform the Ribbon scheme").
func TestSchemesEndToEnd(t *testing.T) {
	t.Parallel()
	m := models.MustByName("RM2")
	pool := cloud.ThreeTypePool()
	spec := sim.ClusterSpec{Pool: pool, Config: cloud.Config{2, 1, 3}, Model: m}
	// 1800 queries keep every probe at or below 60 QPS at least 30 s long.
	find := func(factory sim.DistributorFactory) float64 {
		return sim.FindAllowableThroughput(spec, factory, sim.FindOptions{
			ProbeQueries: 1800, Seed: 77, PrecisionFrac: 0.05,
			Batches: workload.DefaultTrace(),
		})
	}
	opts := rm2Options()
	ribbon := find(func() sim.Distributor { return NewRibbon(opts) })
	clkwrk := find(func() sim.Distributor { return NewClockwork(opts) })
	// DRS gets its hill-climbed threshold, as in the paper's methodology.
	_, drs, _ := TuneDRSThreshold(func(thr int) float64 {
		return find(func() sim.Distributor { return NewDRS(opts, thr) })
	}, 150, 50, 1000)
	if ribbon <= 0 || clkwrk <= 0 || drs <= 0 {
		t.Fatalf("throughputs: ribbon=%v drs=%v clkwrk=%v", ribbon, drs, clkwrk)
	}
	if clkwrk < ribbon {
		t.Errorf("CLKWRK (%v) should not trail RIBBON (%v)", clkwrk, ribbon)
	}
	if drs < ribbon*0.9 {
		t.Errorf("tuned DRS (%v) collapsed versus RIBBON (%v)", drs, ribbon)
	}
}
