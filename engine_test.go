package kairos

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
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

// TestEnginePlanRefusesBudgetThatServesNothing: every catalog model needs
// the base GPU, so a budget below its price buys either nothing or only
// auxiliary instances with a zero upper bound. Plan must say so rather
// than hand back a configuration that serves nothing. Just above the GPU's
// price the top ten still hold zero-bound configurations, and the
// similarity pick must not land on one of them.
func TestEnginePlanRefusesBudgetThatServesNothing(t *testing.T) {
	t.Parallel()
	samples := sampleBatches(2000, 1)
	for _, tc := range []struct {
		budget float64
		ok     bool
	}{
		{budget: 0.1},
		{budget: 0.2},
		{budget: 0.3},
		{budget: 0.6, ok: true},
		{budget: 2.5, ok: true},
	} {
		t.Run(fmt.Sprint(tc.budget), func(t *testing.T) {
			t.Parallel()
			e := testEngine(t, WithBudget(tc.budget), WithBatchSamples(samples))
			pick, err := e.Plan()
			if !tc.ok {
				if err == nil {
					t.Fatalf("Plan at $%v/hr = %v with a nil error, want an error", tc.budget, pick)
				}
				for _, want := range []string{"RM2", fmt.Sprint(tc.budget)} {
					if !strings.Contains(err.Error(), want) {
						t.Fatalf("Plan error %q does not name %q", err, want)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if ub, err := e.UpperBound(pick); err != nil || ub <= 0 {
				t.Fatalf("Plan at $%v/hr = %v with upper bound %v (%v)", tc.budget, pick, ub, err)
			}
		})
	}
}

func TestEngineFactoryIsolatesRuns(t *testing.T) {
	t.Parallel()
	e := testEngine(t)
	f := e.Factory()
	if f() == f() {
		t.Fatal("factory must build fresh policy instances")
	}
}

// observingPolicy is least-loaded dispatch that counts the completions the
// controller reports back to it.
type observingPolicy struct {
	Distributor
	seen *atomic.Int64
}

func (p observingPolicy) Observe(string, int, float64) { p.seen.Add(1) }

var observingPolicies atomic.Int64

// registerObserving registers a fresh observingPolicy under a name of its
// own and returns the name and one counter per model in names: the
// counter of whichever model a built policy serves.
func registerObserving(t *testing.T, names ...string) (string, map[string]*atomic.Int64) {
	t.Helper()
	seen := make(map[string]*atomic.Int64, len(names))
	for _, name := range names {
		seen[name] = new(atomic.Int64)
	}
	policy := fmt.Sprintf("test-observing-%d", observingPolicies.Add(1))
	err := RegisterPolicy(policy, func(ctx PolicyContext) (Distributor, error) {
		d, err := NewPolicy("least-loaded", ctx)
		if err != nil {
			return nil, err
		}
		return observingPolicy{d, seen[ctx.Model.Name]}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return policy, seen
}

func TestEngineConnectFeedsPolicy(t *testing.T) {
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

	// An online-learning policy only works on the real path if the
	// controller feeds it completions.
	policy, seen := registerObserving(t, model.Name)
	e, err := New(WithPool(DefaultPool()), WithModel(model), WithPolicy(policy))
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
	if got := seen[model.Name].Load(); got != 3 {
		t.Fatalf("policy observed %d completions over the network path, want 3", got)
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
		WithModels("NCF"),
		WithBudget(0.8),
		WithBatchSamples(reference),
		WithSeed(7),
	)
	if err != nil {
		t.Fatal(err)
	}
	// No budget, no autopilot.
	noBudget, err := New(WithPool(DefaultPool()), WithModels("NCF"))
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
