package kairos

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

// drawMix samples n batch sizes from a distribution.
func drawMix(dist BatchDistribution, n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		out[i] = dist.Sample(rng)
	}
	return out
}

// multiEngine builds the two-model engine used by the facade tests: NCF on
// a small mix, MT-WND on a small mix, one shared budget.
func multiEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	base := []Option{
		WithPool(DefaultPool()),
		WithModels("NCF", "MT-WND"),
		WithBudget(0.9),
		WithModelSamples("NCF", drawMix(Uniform(10, 60), 1500, 3)),
		WithModelSamples("MT-WND", drawMix(Uniform(10, 80), 1500, 4)),
		WithSeed(7),
	}
	e, err := New(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestWithModelsValidation(t *testing.T) {
	t.Parallel()
	if _, err := New(WithPool(DefaultPool()), WithModels()); err == nil {
		t.Fatal("empty WithModels must error")
	}
	if _, err := New(WithPool(DefaultPool()), WithModels("NCF", "NCF")); err == nil {
		t.Fatal("duplicate model must error")
	}
	if _, err := New(WithPool(DefaultPool()), WithModels("nope")); err == nil {
		t.Fatal("unknown model must error")
	}
	if _, err := New(WithPool(DefaultPool()), WithModels("NCF"),
		WithModelSamples("RM2", []int{10})); err == nil {
		t.Fatal("WithModelSamples for an unserved model must error")
	}
	if _, err := New(WithPool(DefaultPool()), WithModelSet(Model{Name: "x"})); err == nil {
		t.Fatal("WithModelSet without QoS must error")
	}

	e := multiEngine(t)
	if got := e.Model().Name; got != "NCF" {
		t.Fatalf("primary model = %s", got)
	}
	if got := e.Models(); len(got) != 2 || got[1].Name != "MT-WND" {
		t.Fatalf("models = %v", got)
	}
	if _, err := e.MonitorFor("MT-WND"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.MonitorFor("nope"); err == nil {
		t.Fatal("MonitorFor unknown model must error")
	}
}

// TestMultiModelGuardsSingleModelMethods: the single-model lifecycle
// methods must refuse a multi-model engine instead of silently planning
// the whole budget for one model.
func TestMultiModelGuardsSingleModelMethods(t *testing.T) {
	t.Parallel()
	e := multiEngine(t)
	wantErr := func(name string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "serves 2 models") {
			t.Fatalf("%s on a multi-model engine: err = %v", name, err)
		}
	}
	_, err := e.Plan()
	wantErr("Plan", err)
	_, err = e.Rank()
	wantErr("Rank", err)
	_, err = e.Serve()
	wantErr("Serve", err)
	_, err = e.UpperBound(Config{1, 0, 0, 0})
	wantErr("UpperBound", err)
	_, err = e.Evaluate(Config{1, 0, 0, 0}, RunOptions{RatePerSec: 1, DurationMS: 10})
	wantErr("Evaluate", err)
	_, err = e.AllowableThroughput(Config{1, 0, 0, 0})
	wantErr("AllowableThroughput", err)
	_, err = e.OracleThroughput(Config{1, 0, 0, 0})
	wantErr("OracleThroughput", err)

	// Factory cannot return an error; it must panic instead of silently
	// wiring every distributor to the primary model.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Factory() on a multi-model engine must panic when invoked")
			}
		}()
		e.Factory()()
	}()
}

// TestEnginePlanFleet: the shared budget splits across both models, covers
// each, and never overspends; a single-model engine plans a one-entry
// fleet.
func TestEnginePlanFleet(t *testing.T) {
	t.Parallel()
	pool := DefaultPool()
	e := multiEngine(t)
	plan, err := e.PlanFleet()
	if err != nil {
		t.Fatal(err)
	}
	if plan["NCF"].Total() == 0 || plan["MT-WND"].Total() == 0 {
		t.Fatalf("both models must be served: %v", plan)
	}
	if got := plan.Cost(pool); got > e.Budget()+1e-9 {
		t.Fatalf("fleet plan %v busts the budget at $%.3f/hr", plan, got)
	}

	single, err := New(
		WithPool(pool),
		WithModelName("NCF"),
		WithBudget(0.8),
		WithBatchSamples(drawMix(Uniform(10, 60), 1500, 3)),
	)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := single.PlanFleet()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp) != 1 || sp["NCF"].Total() == 0 {
		t.Fatalf("single-model fleet plan = %v", sp)
	}

	noBudget, err := New(WithPool(pool), WithModels("NCF", "MT-WND"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := noBudget.PlanFleet(); err == nil {
		t.Fatal("PlanFleet without a budget must error")
	}
}

// TestEngineConnectMultiModel: Connect builds one scheduler group per
// model; each model's completions feed that model's monitor, not the
// other's.
func TestEngineConnectMultiModel(t *testing.T) {
	t.Parallel()
	e := multiEngine(t, WithPolicy("kairos"))
	ncf, wnd := e.Models()[0], e.Models()[1]
	var addrs []string
	for _, m := range []Model{ncf, wnd} {
		srv, err := NewInstanceServer("g4dn.xlarge", m, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}
	ctrl, err := e.Connect(0.5, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	for i := 0; i < 3; i++ {
		if res := ctrl.SubmitWait(ncf.Name, 10); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if res := ctrl.SubmitWait(wnd.Name, 20); res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := e.Monitor().Count(); got != 3 {
		t.Fatalf("NCF monitor observed %d completions, want 3", got)
	}
	wm, err := e.MonitorFor(wnd.Name)
	if err != nil {
		t.Fatal(err)
	}
	if got := wm.Count(); got != 1 {
		t.Fatalf("MT-WND monitor observed %d completions, want 1", got)
	}
}

// TestMultiModelAutopilotEndToEnd is the acceptance run on the public API:
// two models on the live TCP path under one shared budget; a mid-run mix
// shift on one model makes the autopilot move budget between the models'
// fleets with zero dropped in-flight queries. Guarded by -short; CI runs
// it under -race.
func TestMultiModelAutopilotEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-model autopilot e2e in -short mode")
	}
	t.Parallel()
	pool := DefaultPool()
	e := multiEngine(t)
	ap, err := e.Autopilot(1, AutopilotOptions{
		Interval:        25 * time.Millisecond,
		Cooldown:        50 * time.Millisecond,
		Window:          300,
		MinObservations: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ap.Close()
	ap.Start()
	ctrl := ap.Controller()

	initial := ap.Current()
	if initial["NCF"].Total() == 0 || initial["MT-WND"].Total() == 0 {
		t.Fatalf("initial plan must serve both models: %v", initial)
	}
	if initial["MT-WND"].Base() != 0 {
		t.Fatalf("initial plan %v already owns the GPU; the shift would be invisible", initial)
	}

	rng := rand.New(rand.NewSource(11))
	smallA, smallB, largeB := Uniform(10, 60), Uniform(10, 80), Uniform(500, 800)
	send := func(model string, mix BatchDistribution, n int, gapMS float64) []<-chan QueryResult {
		done := make([]<-chan QueryResult, n)
		for i := 0; i < n; i++ {
			done[i] = ctrl.Submit(model, mix.Sample(rng))
			time.Sleep(time.Duration(gapMS * float64(time.Millisecond)))
		}
		return done
	}
	wait := func(label string, chans []<-chan QueryResult) {
		t.Helper()
		for i, ch := range chans {
			select {
			case res := <-ch:
				if res.Err != nil {
					t.Fatalf("%s query %d dropped: %v", label, i, res.Err)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("%s query %d never completed", label, i)
			}
		}
	}

	// Phase 1: both models steady on their reference mixes.
	chA, chB := send("NCF", smallA, 120, 1), send("MT-WND", smallB, 100, 2)
	wait("phase-1 NCF", chA)
	wait("phase-1 MT-WND", chB)

	// Phase 2: MT-WND shifts to GPU-only batches mid-run.
	chA, chB = send("NCF", smallA, 80, 2), send("MT-WND", largeB, 180, 8)
	wait("phase-2 NCF", chA)
	wait("phase-2 MT-WND", chB)

	deadline := time.Now().Add(10 * time.Second)
	for ap.Replans() == 0 && time.Now().Before(deadline) {
		time.Sleep(25 * time.Millisecond)
	}
	if ap.Replans() == 0 {
		t.Fatal("the autopilot never replanned after the mix shift")
	}
	wait("post-replan MT-WND", send("MT-WND", largeB, 25, 8))
	wait("post-replan NCF", send("NCF", smallA, 25, 2))

	now := ap.Current()
	if now["MT-WND"].Base() == 0 {
		t.Fatalf("shifted plan %v did not buy MT-WND the GPU", now)
	}
	if pool.Cost(now["MT-WND"]) <= pool.Cost(initial["MT-WND"]) ||
		pool.Cost(now["NCF"]) >= pool.Cost(initial["NCF"]) {
		t.Fatalf("budget did not move between the fleets: %v -> %v", initial, now)
	}
	if got := now.Cost(pool); got > e.Budget()+1e-9 {
		t.Fatalf("fleet plan %v busts the shared budget at $%.3f/hr", now, got)
	}
	if st := ctrl.Stats(); st.Failed != 0 {
		t.Fatalf("%d queries dropped during the budget shift", st.Failed)
	}
	// The admin endpoint reflects both models.
	status := ap.Status()
	if len(status.Models) != 2 || len(status.Plan.Models) != 2 {
		t.Fatalf("admin status misses a model: %+v", status.Plan)
	}
}
