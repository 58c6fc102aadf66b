package kairos

import (
	"math/rand"
	"testing"
)

// testEngine builds a small 2-type engine for fast lifecycle tests.
func testEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	model, err := ModelByName("RM2")
	if err != nil {
		t.Fatal(err)
	}
	base := []Option{WithPool(DefaultPool()), WithModel(model), WithSeed(3)}
	e, err := New(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEnginePlanLifecycle(t *testing.T) {
	t.Parallel()
	e := testEngine(t, WithBudget(2.5), WithBatchSamples(sampleBatches(5000, 1)))

	pick, err := e.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if pick.Total() == 0 {
		t.Fatalf("empty plan %v", pick)
	}
	if !e.Pool().WithinBudget(pick, 2.5) {
		t.Fatalf("plan %v exceeds budget", pick)
	}
	ranked, err := e.Rank()
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) < 100 {
		t.Fatalf("ranking size %d", len(ranked))
	}
	ub, err := e.UpperBound(pick)
	if err != nil {
		t.Fatal(err)
	}
	if ub <= 0 {
		t.Fatal("pick upper bound must be positive")
	}
	res, err := e.PlanPlus(func(c Config) float64 {
		v, err := e.UpperBound(c)
		if err != nil {
			t.Fatal(err)
		}
		return v * 0.9
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || res.Evaluations == 0 {
		t.Fatalf("PlanPlus = %+v", res)
	}
}

func TestEngineServeWiresMonitor(t *testing.T) {
	t.Parallel()
	e := testEngine(t, WithPolicy("kairos+warm"))
	d, err := e.Serve()
	if err != nil {
		t.Fatal(err)
	}
	obs, ok := d.(Observer)
	if !ok {
		t.Fatal("kairos distributor must observe completions")
	}
	obs.Observe(e.Pool().Base().Name, 100, 5)
	if e.Monitor().Count() != 1 {
		t.Fatalf("monitor count = %d after one observation", e.Monitor().Count())
	}
}

func TestEngineFactoryIsolatesRuns(t *testing.T) {
	t.Parallel()
	e := testEngine(t)
	f := e.Factory()
	if f() == f() {
		t.Fatal("factory must build fresh policy instances")
	}
	if e.Monitor().Count() != 0 {
		t.Fatal("factory policies must not feed the engine monitor")
	}
}

func TestEnginePlansFromMonitorFreshly(t *testing.T) {
	t.Parallel()
	e := testEngine(t, WithBudget(2.5))

	// With a cold monitor the engine synthesizes a snapshot from its trace.
	pick1, err := e.Plan()
	if err != nil {
		t.Fatal(err)
	}
	// A warmed monitor with a radically different mix changes the plan on
	// the next call — monitor-sourced planning is never cached.
	rng := rand.New(rand.NewSource(4))
	shifted := Gaussian(600, 100)
	for i := 0; i < 10000; i++ {
		e.Monitor().Observe(shifted.Sample(rng))
	}
	pick2, err := e.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if pick1.Equal(pick2) {
		t.Fatalf("plan did not follow the monitor: %v == %v", pick1, pick2)
	}
}

func TestEnginePlanIgnoresBarelyWarmMonitor(t *testing.T) {
	t.Parallel()
	e := testEngine(t, WithBudget(2.5))
	pick1, err := e.Plan()
	if err != nil {
		t.Fatal(err)
	}
	// A handful of early completions must not replace the 10k-sample
	// synthetic snapshot with a degenerate one-point mix.
	for i := 0; i < 5; i++ {
		e.Monitor().Observe(1000)
	}
	pick2, err := e.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !pick1.Equal(pick2) {
		t.Fatalf("plan flipped on a barely-warm monitor: %v -> %v", pick1, pick2)
	}
}

func TestEngineConnectFeedsPolicyAndMonitor(t *testing.T) {
	t.Parallel()
	model, err := ModelByName("NCF")
	if err != nil {
		t.Fatal(err)
	}
	const timeScale = 0.5
	srv, err := NewInstanceServer("g4dn.xlarge", model, timeScale)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The online-learning policy only works on the real path if the
	// controller feeds it completions; the shared monitor proves it does.
	e, err := New(WithPool(DefaultPool()), WithModel(model), WithPolicy("kairos"))
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := e.Connect(timeScale, []string{srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	for i := 0; i < 3; i++ {
		if res := ctrl.SubmitWait(model.Name, 10); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if got := e.Monitor().Count(); got != 3 {
		t.Fatalf("monitor observed %d completions over the network path, want 3", got)
	}
}

func TestEngineEvaluateAndThroughput(t *testing.T) {
	t.Parallel()
	e := testEngine(t, WithPolicy("kairos+warm"))
	cfg := Config{1, 0, 4, 0}

	res, err := e.Evaluate(cfg, RunOptions{RatePerSec: 20, DurationMS: 8000, WarmupMS: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Measured.Count == 0 {
		t.Fatal("nothing measured")
	}
	qps, err := e.AllowableThroughput(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if qps <= 0 {
		t.Fatalf("allowable throughput = %v", qps)
	}
	orcl, err := e.OracleThroughput(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if orcl < qps {
		t.Fatalf("oracle %v below policy throughput %v", orcl, qps)
	}
}

// TestEngineAutopilotLifecycle drives the facade's closed loop: plan and
// deploy an in-process fleet, serve a shifted mix over the real TCP path,
// and let one manual control step replan and reconfigure it.
func TestEngineAutopilotLifecycle(t *testing.T) {
	t.Parallel()
	small := Uniform(10, 80)
	reference := make([]int, 2000)
	rng := rand.New(rand.NewSource(7))
	for i := range reference {
		reference[i] = small.Sample(rng)
	}
	e, err := New(
		WithPool(DefaultPool()),
		WithModelName("NCF"),
		WithBudget(0.8),
		WithBatchSamples(reference),
		WithSeed(7),
	)
	if err != nil {
		t.Fatal(err)
	}
	// No budget, no autopilot.
	noBudget, err := New(WithPool(DefaultPool()), WithModelName("NCF"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := noBudget.Autopilot(1, AutopilotOptions{}); err == nil {
		t.Fatal("autopilot without a budget must error")
	}

	ap, err := e.Autopilot(1, AutopilotOptions{Window: 60, MinObservations: 30})
	if err != nil {
		t.Fatal(err)
	}
	defer ap.Close()
	initial := ap.Current()
	if initial.Total() == 0 {
		t.Fatalf("empty initial deployment %v", initial)
	}
	if got := ap.Controller().InstanceCounts(); len(got) == 0 {
		t.Fatalf("no live fleet: %v", got)
	}
	// Serve a disjoint large-batch mix; one step must replan and actuate.
	for i := 0; i < 40; i++ {
		if res := ap.Controller().SubmitWait("NCF", 500+i); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	dec, err := ap.Step()
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Replanned {
		t.Fatalf("expected a replan: %+v", dec)
	}
	if ap.Current().Equal(initial) {
		t.Fatalf("configuration unchanged: %v", ap.Current())
	}
	if got := ap.Controller().Stats().Failed; got != 0 {
		t.Fatalf("%d queries dropped during reconfiguration", got)
	}
}
