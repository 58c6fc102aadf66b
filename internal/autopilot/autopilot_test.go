package autopilot

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"kairos/internal/cloud"
	"kairos/internal/core"
	"kairos/internal/ingress"
	"kairos/internal/models"
	"kairos/internal/predictor"
	"kairos/internal/server"
	"kairos/internal/workload"
)

// ncf returns the millisecond-scale model used by all live-path tests.
func ncf() models.Model { return models.MustByName("NCF") }

// kairosPolicy builds the warmed paper policy over the default pool.
func kairosPolicy(m models.Model) *core.Distributor {
	pool := cloud.DefaultPool()
	names := make([]string, len(pool))
	for i, t := range pool {
		names[i] = t.Name
	}
	return core.NewDistributor(core.DistributorOptions{
		QoS:       m.QoS,
		BaseType:  pool.Base().Name,
		Predictor: predictor.Warmed(m.Latency, names, []int{1, 250, 500, 750, 1000}),
	})
}

// samplesOf draws n batch sizes from dist.
func samplesOf(dist workload.BatchDistribution, n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		out[i] = dist.Sample(rng)
	}
	return out
}

// plan wraps a single model's config as a fleet plan.
func plan(m models.Model, cfg cloud.Config) core.FleetPlan {
	return core.FleetPlan{m.Name: cfg}
}

func TestFleetLifecycle(t *testing.T) {
	t.Parallel()
	m := ncf()
	f := NewFleet(1, m)
	defer f.Close()

	if _, err := f.Launch(m.Name, "no-such-type"); err == nil {
		t.Fatal("unknown type must not launch")
	}
	if _, err := f.Launch("no-such-model", cloud.R5nLarge.Name); err == nil {
		t.Fatal("unknown model must not launch")
	}
	addr, err := f.Launch(m.Name, cloud.R5nLarge.Name)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 1 || f.Counts()[m.Name][cloud.R5nLarge.Name] != 1 {
		t.Fatalf("size=%d counts=%v", f.Size(), f.Counts())
	}
	if err := f.Stop(addr); err != nil {
		t.Fatal(err)
	}
	if err := f.Stop(addr); err == nil {
		t.Fatal("double stop must error")
	}

	pool := cloud.DefaultPool()
	addrs, err := Deploy(f, pool, plan(m, cloud.Config{1, 0, 2, 0}))
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 3 || f.Size() != 3 {
		t.Fatalf("deployed %v, size %d", addrs, f.Size())
	}
	counts := f.Counts()[m.Name]
	if counts[cloud.G4dnXlarge.Name] != 1 || counts[cloud.R5nLarge.Name] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	if _, err := Deploy(f, pool, plan(m, cloud.Config{1})); err == nil {
		t.Fatal("mismatched config must error")
	}
}

func TestOptionsValidation(t *testing.T) {
	t.Parallel()
	m := ncf()
	pool := cloud.DefaultPool()
	ms := []models.Model{m}
	okPlan := func(map[string][]int, map[string]float64, float64) (core.FleetPlan, error) {
		return core.FleetPlan{m.Name: cloud.Config{0, 0, 1, 0}}, nil
	}

	for name, w := range map[string]Wiring{
		"no pool":         {Models: ms, Plan: okPlan},
		"no models":       {Pool: pool, Plan: okPlan},
		"duplicate model": {Pool: pool, Models: []models.Model{m, m}, Plan: okPlan},
		"no plan":         {Pool: pool, Models: ms},
	} {
		if err := w.check(); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	for name, opts := range map[string]Options{
		"bad drift":                      {DriftThreshold: 1.5},
		"bad scale-in floor":             {ScaleInFloor: 1.2},
		"scale-in floor inside the band": {ScaleInFloor: 1 - ScaleInHysteresis},
		"min observations over window":   {Window: 100, MinObservations: 500},
		"negative demand headroom":       {DemandHeadroom: -1},
		"bad floor":                      {OnDemandFloor: -1},
		"bad door":                       {Ingress: &ingress.Options{RateLimit: 5}},
		"provider at another time scale": {Provider: NewFleet(0.5, m)},
	} {
		if _, err := opts.withDefaults(1, ms); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}

	o, err := Options{ScaleInFloor: 0.3}.withDefaults(0, ms)
	if err != nil {
		t.Fatal(err)
	}
	if o.Interval != DefaultInterval || o.Window != DefaultWindow ||
		o.MinObservations != DefaultWindow/10 || o.Cooldown != 2*DefaultInterval ||
		o.ScaleInTicks != DefaultScaleInTicks ||
		o.DriftThreshold != DefaultDriftThreshold || o.DemandHeadroom != core.DefaultHeadroom {
		t.Fatalf("defaults = %+v", o)
	}
	if f, ok := o.Provider.(*Fleet); !ok || f.TimeScale() != 1 {
		t.Fatalf("default provider = %T, want the in-process fleet at real time", o.Provider)
	}
}

// startAutopilot boots a fleet + controller for initial and builds an
// autopilot around them with the given plan function and options tweaks;
// the provider is the in-process fleet unless opts names one.
func startAutopilot(t *testing.T, initial cloud.Config, w Wiring, opts Options) *Autopilot {
	t.Helper()
	m := ncf()
	pool := cloud.DefaultPool()
	if opts.Provider == nil {
		opts.Provider = NewFleet(1, m)
	}
	fleet := opts.Provider
	addrs, err := Deploy(fleet, pool, plan(m, initial))
	if err != nil {
		fleet.Close()
		t.Fatal(err)
	}
	ctrl, err := server.NewController(m.Name, kairosPolicy(m), 1, m.Latency, addrs)
	if err != nil {
		fleet.Close()
		t.Fatal(err)
	}
	w.Pool = pool
	if w.Models == nil {
		w.Models = []models.Model{m}
	}
	ap, err := New(ctrl, plan(m, initial), w, opts)
	if err != nil {
		ctrl.Close()
		fleet.Close()
		t.Fatal(err)
	}
	t.Cleanup(ap.Close)
	return ap
}

// singlePlan adapts a single-model planner to the fleet Plan signature.
func singlePlan(m models.Model, fn func(samples []int) (cloud.Config, error)) PlanFunc {
	return func(samples map[string][]int, _ map[string]float64, _ float64) (core.FleetPlan, error) {
		cfg, err := fn(samples[m.Name])
		if err != nil {
			return nil, err
		}
		if cfg == nil {
			return nil, nil
		}
		return core.FleetPlan{m.Name: cfg}, nil
	}
}

// TestStepDriftReplanActuates drives the control loop deterministically:
// live completions of a shifted mix must trip the drift trigger, invoke
// the planner with the live window, and reconcile the fleet — without
// dropping a single query.
func TestStepDriftReplanActuates(t *testing.T) {
	t.Parallel()
	m := ncf()
	initial := cloud.Config{0, 0, 2, 0} // 2x CPU
	next := cloud.Config{1, 0, 1, 0}    // 1x GPU + 1x CPU
	var planned [][]int
	w := Wiring{
		Plan: singlePlan(m, func(samples []int) (cloud.Config, error) {
			planned = append(planned, samples)
			return next.Clone(), nil
		}),
		References: map[string][]int{m.Name: samplesOf(workload.Uniform{Min: 10, Max: 60}, 200, 1)},
	}
	opts := Options{
		Window:          60,
		MinObservations: 30,
		DriftThreshold:  0.3,
	}
	ap := startAutopilot(t, initial, w, opts)

	// Cold window: nothing to check yet.
	dec, err := ap.Step()
	if err != nil {
		t.Fatal(err)
	}
	if dec.Checked {
		t.Fatalf("cold window must not be checked: %+v", dec)
	}

	// Serve 40 queries of a disjoint mix through the real TCP path.
	for i := 0; i < 40; i++ {
		if res := ap.Controller().SubmitWait(m.Name, 500+i); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	dec, err = ap.Step()
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Checked || !dec.DriftTriggered || !dec.Replanned {
		t.Fatalf("expected a drift-triggered replan: %+v", dec)
	}
	if md := dec.Models[m.Name]; !md.Checked || !md.DriftTriggered {
		t.Fatalf("per-model decision = %+v", md)
	}
	if !dec.From.Equal(plan(m, initial)) || !dec.To.Equal(plan(m, next)) {
		t.Fatalf("decision %v -> %v", dec.From, dec.To)
	}
	if len(planned) != 1 || len(planned[0]) != 40 {
		t.Fatalf("planner saw %d samples", len(planned[0]))
	}
	if !ap.Current().Equal(plan(m, next)) || ap.Replans() != 1 {
		t.Fatalf("current=%v replans=%d", ap.Current(), ap.Replans())
	}
	// The running fleet converged to the new plan.
	counts := ap.Controller().ModelInstanceCounts(m.Name)
	if counts[cloud.G4dnXlarge.Name] != 1 || counts[cloud.R5nLarge.Name] != 1 {
		t.Fatalf("controller fleet = %v", counts)
	}
	fcounts := ap.Provider().(*Fleet).Counts()[m.Name]
	if fcounts[cloud.G4dnXlarge.Name] != 1 || fcounts[cloud.R5nLarge.Name] != 1 {
		t.Fatalf("fleet servers = %v", fcounts)
	}
	// Queries keep flowing on the reconfigured fleet.
	if res := ap.Controller().SubmitWait(m.Name, 700); res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := ap.Controller().Stats().Failed; got != 0 {
		t.Fatalf("%d queries dropped across the reconfiguration", got)
	}
	// The trigger was answered: the detector is rebased on the window just
	// planned from, so the same mix does not fire again.
	if dec, err := ap.Step(); err != nil || dec.DriftTriggered || dec.Replanned {
		t.Fatalf("same mix after the replan: %+v err=%v, want a steady step", dec, err)
	}
}

// TestStepCooldownHoldsTriggers: a second drifted window within the
// cooldown must not replan again.
func TestStepCooldownHoldsTriggers(t *testing.T) {
	t.Parallel()
	m := ncf()
	initial := cloud.Config{0, 0, 2, 0}
	w := Wiring{
		Plan: singlePlan(m, func([]int) (cloud.Config, error) {
			return cloud.Config{1, 0, 1, 0}, nil
		}),
		References: map[string][]int{m.Name: samplesOf(workload.Uniform{Min: 10, Max: 60}, 200, 1)},
	}
	opts := Options{
		Window:          40,
		MinObservations: 20,
		Cooldown:        time.Hour,
	}
	ap := startAutopilot(t, initial, w, opts)
	for i := 0; i < 25; i++ {
		if res := ap.Controller().SubmitWait(m.Name, 600); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if dec, err := ap.Step(); err != nil || !dec.Replanned {
		t.Fatalf("first step: %+v err=%v", dec, err)
	}
	// Shift again: the window still reads as drifted vs the rebased
	// reference, but the cooldown holds.
	for i := 0; i < 25; i++ {
		if res := ap.Controller().SubmitWait(m.Name, 30); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	dec, err := ap.Step()
	if err != nil {
		t.Fatal(err)
	}
	if dec.Replanned || !dec.DriftTriggered {
		t.Fatalf("cooldown must hold the trigger: %+v", dec)
	}
	if ap.Replans() != 1 {
		t.Fatalf("replans = %d", ap.Replans())
	}
}

// TestStepSLOTrigger: an SLO breach with an undrifted mix fires the
// trigger; when the planner returns the same configuration, nothing is
// actuated but the decision is recorded.
func TestStepSLOTrigger(t *testing.T) {
	t.Parallel()
	m := ncf()
	m.QoS = 0.0001 // everything breaches
	initial := cloud.Config{0, 0, 1, 0}
	small := workload.Uniform{Min: 10, Max: 60}
	w := Wiring{
		Models: []models.Model{m},
		Plan: singlePlan(m, func([]int) (cloud.Config, error) {
			return cloud.Config{0, 0, 1, 0}, nil // planner sees no better option
		}),
		References: map[string][]int{m.Name: samplesOf(small, 200, 1)},
	}
	opts := Options{
		Window:          40,
		MinObservations: 10,
	}
	ap := startAutopilot(t, initial, w, opts)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 12; i++ {
		if res := ap.Controller().SubmitWait(m.Name, small.Sample(rng)); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	dec, err := ap.Step()
	if err != nil {
		t.Fatal(err)
	}
	if !dec.SLOTriggered || dec.DriftTriggered {
		t.Fatalf("want a pure SLO trigger: %+v", dec)
	}
	if dec.Replanned || ap.Replans() != 0 {
		t.Fatalf("unchanged plan must not actuate: %+v", dec)
	}
	st := ap.Status()
	if st.Plan.LastReason == "" {
		t.Fatal("the held trigger must be recorded")
	}
}

// TestStepScaleInShedsCost: sustained under-utilization (the ROADMAP's
// scale-in trigger) must fire after the configured consecutive ticks,
// replan under a shrunk budget, and actually drain capacity — then reset
// its counter so the next fire needs a fresh run of low readings.
func TestStepScaleInShedsCost(t *testing.T) {
	t.Parallel()
	m := ncf()
	pool := cloud.DefaultPool()
	initial := cloud.Config{0, 0, 3, 0} // 3x r5n.large = $0.447/hr
	var budgets []float64
	w := Wiring{
		Plan: func(samples map[string][]int, _ map[string]float64, budget float64) (core.FleetPlan, error) {
			budgets = append(budgets, budget)
			if budget > 0 && budget < pool.Cost(initial) {
				// Demand-sized shrink: keep a single CPU.
				return core.FleetPlan{m.Name: cloud.Config{0, 0, 1, 0}}, nil
			}
			return core.FleetPlan{m.Name: initial.Clone()}, nil
		},
		References: map[string][]int{m.Name: samplesOf(workload.Uniform{Min: 10, Max: 60}, 200, 1)},
	}
	opts := Options{
		Window:          40,
		MinObservations: 10,
		ScaleInFloor:    0.5,
		ScaleInTicks:    2,
		Cooldown:        time.Millisecond,
	}
	ap := startAutopilot(t, initial, w, opts)
	// Warm the window, then go idle: utilization between steps is ~0.
	for i := 0; i < 12; i++ {
		if res := ap.Controller().SubmitWait(m.Name, 30); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	// Step 1 baselines the rate estimator (no utilization reading yet).
	dec, err := ap.Step()
	if err != nil {
		t.Fatal(err)
	}
	if dec.ScaleInTriggered {
		t.Fatalf("scale-in fired without a utilization reading: %+v", dec)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !dec.Replanned && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		dec, err = ap.Step()
		if err != nil {
			t.Fatal(err)
		}
	}
	if !dec.Replanned || !dec.ScaleInTriggered {
		t.Fatalf("scale-in never replanned: %+v", dec)
	}
	if dec.PlanBudget <= 0 || dec.PlanBudget >= pool.Cost(initial) {
		t.Fatalf("scale-in must shrink the budget, got %v", dec.PlanBudget)
	}
	if got := budgets[len(budgets)-1]; got != dec.PlanBudget {
		t.Fatalf("planner saw budget %v, decision says %v", got, dec.PlanBudget)
	}
	if !ap.Current().Equal(core.FleetPlan{m.Name: cloud.Config{0, 0, 1, 0}}) {
		t.Fatalf("fleet did not shrink: %v", ap.Current())
	}
	if got := ap.Controller().ModelInstanceCounts(m.Name)[cloud.R5nLarge.Name]; got != 1 {
		t.Fatalf("controller still has %d CPUs", got)
	}
	// The counter reset: the immediately-following step must not re-fire.
	dec, err = ap.Step()
	if err != nil {
		t.Fatal(err)
	}
	if dec.ScaleInTriggered {
		t.Fatalf("counter must reset after a scale-in replan: %+v", dec)
	}
	if st := ap.Status(); !st.ScaleIn.Enabled || st.ScaleIn.TicksNeeded != 2 {
		t.Fatalf("scale-in status = %+v", st.ScaleIn)
	}
	// Zero dropped queries across the drain.
	if got := ap.Controller().Stats().Failed; got != 0 {
		t.Fatalf("%d queries dropped during scale-in", got)
	}
}

// TestScaleInHysteresis exercises the counter's three bands directly:
// below the floor arms, inside the band holds, above the band resets.
func TestScaleInHysteresis(t *testing.T) {
	t.Parallel()
	m := ncf()
	w := Wiring{
		Plan: singlePlan(m, func([]int) (cloud.Config, error) { return cloud.Config{0, 0, 1, 0}, nil }),
	}
	const floor = 0.4
	opts := Options{
		ScaleInFloor: floor,
		ScaleInTicks: 3,
	}
	ap := startAutopilot(t, cloud.Config{0, 0, 1, 0}, w, opts)

	if ap.trig.scaleInTick(0.1, false) {
		t.Fatal("invalid utilization reading must not count")
	}
	if ap.trig.scaleInTick(0.1, true) || ap.trig.scaleInTick(0.2, true) {
		t.Fatal("fired before ticks-needed")
	}
	// Inside the hysteresis band: neither arms nor resets.
	if ap.trig.scaleInTick(floor+ScaleInHysteresis/2, true) {
		t.Fatal("band reading must not fire")
	}
	if !ap.trig.scaleInTick(0.3, true) {
		t.Fatal("third low reading must fire")
	}
	// Above floor+band: resets the run.
	if ap.trig.scaleInTick(floor+2*ScaleInHysteresis, true) {
		t.Fatal("high reading must reset")
	}
	if ap.trig.scaleInTick(0.1, true) {
		t.Fatal("fresh run must start over")
	}
}

func TestAdminEndpoints(t *testing.T) {
	t.Parallel()
	m := ncf()
	initial := cloud.Config{0, 0, 2, 0}
	w := Wiring{
		Plan: singlePlan(m, func([]int) (cloud.Config, error) { return initial, nil }),
	}
	opts := Options{
		Window:          40,
		MinObservations: 10,
	}
	ap := startAutopilot(t, initial, w, opts)
	for i := 0; i < 5; i++ {
		if res := ap.Controller().SubmitWait(m.Name, 40); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	addr, err := ap.StartAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ap.StartAdmin("127.0.0.1:0"); err == nil {
		t.Fatal("second admin endpoint must error")
	}

	get := func(path string, v any) int {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return resp.StatusCode
	}

	var health map[string]any
	if code := get("/healthz", &health); code != http.StatusOK || health["ok"] != true {
		t.Fatalf("healthz code=%d body=%v", code, health)
	}
	var plan PlanStatus
	if code := get("/plan", &plan); code != http.StatusOK {
		t.Fatalf("plan code=%d", code)
	}
	mp, ok := plan.Models[m.Name]
	if !ok || len(mp.Config) != len(initial) || mp.Counts[cloud.R5nLarge.Name] != 2 || mp.Cost <= 0 {
		t.Fatalf("plan = %+v", plan)
	}
	if plan.Cost != mp.Cost {
		t.Fatalf("single-model fleet cost %v != model cost %v", plan.Cost, mp.Cost)
	}
	var st Status
	if code := get("/statusz", &st); code != http.StatusOK {
		t.Fatalf("statusz code=%d", code)
	}
	if !st.Healthy || st.Controller.Completed != 5 {
		t.Fatalf("status = %+v", st)
	}
	msec, ok := st.Models[m.Name]
	if !ok || msec.Window.Observations != 5 || msec.SLOLatencyMS != m.QoS {
		t.Fatalf("model section = %+v", msec)
	}
	if st.Fleet[m.Name][cloud.R5nLarge.Name] != 2 {
		t.Fatalf("fleet = %v", st.Fleet)
	}
	if cs, ok := st.Controller.Models[m.Name]; !ok || cs.Completed != 5 {
		t.Fatalf("controller per-model stats = %+v", st.Controller.Models)
	}

	// /metrics is the Prometheus text exposition.
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != PromContentType {
		t.Fatalf("metrics content type %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE kairos_up gauge",
		"kairos_up 1",
		"kairos_queries_completed_total 5",
		"# TYPE kairos_stage_latency_seconds histogram",
		fmt.Sprintf("kairos_stage_latency_seconds_count{model=%q,stage=\"e2e\"} 5", m.Name),
		fmt.Sprintf("kairos_fleet_instances{model=%q,type=%q} 2", m.Name, cloud.R5nLarge.Name),
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, text)
		}
	}

	// /tracez reports the sampling config and per-model rings (tracing
	// defaults to 1/64 sampling, so the ring may legitimately be empty).
	var tz TracezStatus
	if code := get("/tracez", &tz); code != http.StatusOK {
		t.Fatalf("tracez code=%d", code)
	}
	if tz.SampleEvery == 0 {
		t.Fatalf("tracez sampling disabled by default: %+v", tz)
	}
	if _, ok := tz.Models[m.Name]; !ok {
		t.Fatalf("tracez missing model section: %+v", tz)
	}
	var bad map[string]string
	if code := get("/tracez?model=nope", &bad); code != http.StatusNotFound {
		t.Fatalf("tracez unknown model code=%d", code)
	}

	// /decisionz serves the journal; no Step has run, so it is empty.
	var devs []DecisionEvent
	if code := get("/decisionz", &devs); code != http.StatusOK {
		t.Fatalf("decisionz code=%d", code)
	}
	if len(devs) != 0 {
		t.Fatalf("decision journal unexpectedly has %d entries", len(devs))
	}
	if _, err := ap.Step(); err != nil {
		t.Fatal(err)
	}
	if code := get("/decisionz", &devs); code != http.StatusOK || len(devs) != 1 {
		t.Fatalf("decisionz after one step: code=%d entries=%d", code, len(devs))
	}
	if devs[0].Seq != 1 || devs[0].Kind == "" {
		t.Fatalf("decision entry = %+v", devs[0])
	}
}

// TestAutopilotEndToEndSmoke is the closed-loop acceptance run: an
// in-process fleet at real time scale, live Poisson-ish load whose batch
// mix shifts mid-run, the full monitor -> detect -> replan -> actuate loop
// ticking in the background, and zero dropped queries end to end. Guarded
// by -short so quick local runs skip it; CI runs it with -race.
func TestAutopilotEndToEndSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping end-to-end autopilot smoke test in -short mode")
	}
	t.Parallel()
	m := ncf()
	pool := cloud.DefaultPool()
	const budget = 0.8

	small := workload.Uniform{Min: 10, Max: 80}
	large := workload.Uniform{Min: 450, Max: 750}
	reference := samplesOf(small, 2000, 7)

	planOne := func(samples []int) (cloud.Config, error) {
		est, err := core.NewEstimator(pool, m, samples)
		if err != nil {
			return nil, err
		}
		return est.Plan(budget), nil
	}
	initial, err := planOne(reference)
	if err != nil {
		t.Fatal(err)
	}
	if initial[cloud.BaseIndex] != 0 {
		t.Fatalf("small-mix plan %v unexpectedly buys the GPU; the shift would be invisible", initial)
	}

	fleet := NewFleet(1, m)
	addrs, err := Deploy(fleet, pool, plan(m, initial))
	if err != nil {
		fleet.Close()
		t.Fatal(err)
	}
	ctrl, err := server.NewController(m.Name, kairosPolicy(m), 1, m.Latency, addrs)
	if err != nil {
		fleet.Close()
		t.Fatal(err)
	}
	ap, err := New(ctrl, plan(m, initial), Wiring{
		Pool:       pool,
		Models:     []models.Model{m},
		Plan:       singlePlan(m, planOne),
		References: map[string][]int{m.Name: reference},
	}, Options{
		Provider:        fleet,
		Interval:        25 * time.Millisecond,
		Cooldown:        50 * time.Millisecond,
		Window:          300,
		MinObservations: 100,
	})
	if err != nil {
		ctrl.Close()
		fleet.Close()
		t.Fatal(err)
	}
	defer ap.Close()
	ap.Start()

	rng := rand.New(rand.NewSource(11))
	send := func(mix workload.BatchDistribution, n int, gapMS float64) {
		t.Helper()
		done := make([]<-chan server.QueryResult, n)
		for i := 0; i < n; i++ {
			done[i] = ctrl.Submit(m.Name, mix.Sample(rng))
			time.Sleep(time.Duration(gapMS * float64(time.Millisecond)))
		}
		for i, ch := range done {
			select {
			case res := <-ch:
				if res.Err != nil {
					t.Fatalf("query %d dropped: %v", i, res.Err)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("query %d never completed", i)
			}
		}
	}

	// Phase 1: steady small-batch traffic on the CPU fleet.
	send(small, 250, 1)
	if got := ap.Replans(); got != 0 {
		t.Fatalf("replanned %d times under the reference mix", got)
	}

	// Phase 2: the mix shifts to large batches; the loop must detect the
	// drift, replan from the live window, and reconfigure mid-run.
	send(large, 400, 4)

	deadline := time.Now().Add(10 * time.Second)
	for ap.Replans() == 0 && time.Now().Before(deadline) {
		time.Sleep(25 * time.Millisecond)
	}
	if ap.Replans() == 0 {
		t.Fatal("the autopilot never replanned after the mix shift")
	}
	// Let a little post-replan traffic prove the new fleet serves.
	send(large, 50, 4)

	got := ap.Current()[m.Name]
	if got.Equal(initial) {
		t.Fatalf("configuration did not change: %v", got)
	}
	if got[cloud.BaseIndex] == 0 {
		t.Fatalf("large-batch plan %v did not buy the GPU", got)
	}
	// Fleet and controller converged to the plan.
	counts := ctrl.ModelInstanceCounts(m.Name)
	for i, typ := range pool {
		if counts[typ.Name] != got[i] {
			t.Fatalf("fleet %v does not match plan %v", counts, got)
		}
	}
	// The acceptance bar: zero dropped queries across drain and launch.
	st := ctrl.Stats()
	if st.Failed != 0 {
		t.Fatalf("%d queries failed during reconfiguration", st.Failed)
	}
	status := ap.Status()
	if !status.Healthy || status.Plan.Replans == 0 {
		t.Fatalf("status = %+v", status)
	}
}

// TestStepRejectsUnusablePlan: a planner returning nil (no feasible
// configuration) is a recorded control failure, never a panic.
func TestStepRejectsUnusablePlan(t *testing.T) {
	t.Parallel()
	m := ncf()
	initial := cloud.Config{0, 0, 1, 0}
	w := Wiring{
		Plan:       singlePlan(m, func([]int) (cloud.Config, error) { return nil, nil }),
		References: map[string][]int{m.Name: samplesOf(workload.Uniform{Min: 10, Max: 60}, 200, 1)},
	}
	opts := Options{
		Window:          40,
		MinObservations: 10,
	}
	ap := startAutopilot(t, initial, w, opts)
	for i := 0; i < 12; i++ {
		if res := ap.Controller().SubmitWait(m.Name, 600); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if _, err := ap.Step(); err == nil {
		t.Fatal("nil plan must surface as a step error")
	}
	if st := ap.Status(); st.Healthy || st.LastError == "" {
		t.Fatalf("unusable plan must mark the control plane unhealthy: %+v", st)
	}
	if !ap.Current().Equal(plan(m, initial)) || ap.Replans() != 0 {
		t.Fatalf("fleet must be untouched: %v, %d replans", ap.Current(), ap.Replans())
	}
}

// TestMultiModelBudgetShift is the multi-model acceptance run on the
// internal API: two models share one budget on the live TCP path; when one
// model's mix shifts to large batches, the fleet replan moves budget from
// the steady model to the drifted one — with zero dropped queries.
func TestMultiModelBudgetShift(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-model end-to-end test in -short mode")
	}
	t.Parallel()
	pool := cloud.DefaultPool()
	a := ncf()                       // stays on small batches
	b := models.MustByName("MT-WND") // shifts to large batches
	const budget = 0.9

	smallA := workload.Uniform{Min: 10, Max: 60}
	smallB := workload.Uniform{Min: 10, Max: 80}
	largeB := workload.Uniform{Min: 500, Max: 800}
	refs := map[string][]int{
		a.Name: samplesOf(smallA, 1500, 3),
		b.Name: samplesOf(smallB, 1500, 4),
	}
	planFleet := func(samples map[string][]int, _ map[string]float64, planBudget float64) (core.FleetPlan, error) {
		if planBudget <= 0 {
			planBudget = budget
		}
		demands := make([]core.ModelDemand, 0, 2)
		for _, m := range []models.Model{a, b} {
			if s := samples[m.Name]; len(s) > 0 {
				demands = append(demands, core.ModelDemand{Model: m, Samples: s})
			}
		}
		return core.PlanFleet(pool, demands, planBudget)
	}
	initial, err := planFleet(refs, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if initial[a.Name].Total() == 0 || initial[b.Name].Total() == 0 {
		t.Fatalf("initial plan must serve both models: %v", initial)
	}
	if initial[b.Name][cloud.BaseIndex] != 0 {
		t.Fatalf("small-mix plan %v already owns the GPU; the shift would be invisible", initial)
	}

	fleet := NewFleet(1, a, b)
	addrs, err := Deploy(fleet, pool, initial)
	if err != nil {
		fleet.Close()
		t.Fatal(err)
	}
	ctrl, err := server.NewMultiController(map[string]server.GroupSpec{
		a.Name: {Policy: kairosPolicy(a), Predict: a.Latency},
		b.Name: {Policy: kairosPolicy(b), Predict: b.Latency},
	}, 1, addrs)
	if err != nil {
		fleet.Close()
		t.Fatal(err)
	}
	ap, err := New(ctrl, initial, Wiring{
		Pool:       pool,
		Models:     []models.Model{a, b},
		Plan:       planFleet,
		References: refs,
	}, Options{
		Provider:        fleet,
		Interval:        25 * time.Millisecond,
		Cooldown:        50 * time.Millisecond,
		Window:          300,
		MinObservations: 100,
	})
	if err != nil {
		ctrl.Close()
		fleet.Close()
		t.Fatal(err)
	}
	defer ap.Close()
	ap.Start()

	rng := rand.New(rand.NewSource(11))
	send := func(model string, mix workload.BatchDistribution, n int, gapMS float64) []<-chan server.QueryResult {
		done := make([]<-chan server.QueryResult, n)
		for i := 0; i < n; i++ {
			done[i] = ctrl.Submit(model, mix.Sample(rng))
			time.Sleep(time.Duration(gapMS * float64(time.Millisecond)))
		}
		return done
	}
	wait := func(label string, chans []<-chan server.QueryResult) {
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

	// Phase 1: both models on their reference mixes — steady state.
	chA := send(a.Name, smallA, 150, 1)
	chB := send(b.Name, smallB, 120, 2)
	wait("phase-1 A", chA)
	wait("phase-1 B", chB)
	if got := ap.Replans(); got != 0 {
		t.Fatalf("replanned %d times under the reference mixes", got)
	}

	// Phase 2: model B's mix shifts to GPU-only batch sizes while model A
	// keeps its small mix flowing.
	chA = send(a.Name, smallA, 100, 2)
	chB = send(b.Name, largeB, 200, 8)
	wait("phase-2 A", chA)
	wait("phase-2 B", chB)

	deadline := time.Now().Add(10 * time.Second)
	for ap.Replans() == 0 && time.Now().Before(deadline) {
		time.Sleep(25 * time.Millisecond)
	}
	if ap.Replans() == 0 {
		t.Fatal("the autopilot never replanned after model B's shift")
	}
	wait("post-replan B", send(b.Name, largeB, 30, 8))
	wait("post-replan A", send(a.Name, smallA, 30, 2))

	now := ap.Current()
	if now[b.Name][cloud.BaseIndex] == 0 {
		t.Fatalf("model B's shifted plan %v did not buy the GPU", now)
	}
	costA0, costA1 := pool.Cost(initial[a.Name]), pool.Cost(now[a.Name])
	costB0, costB1 := pool.Cost(initial[b.Name]), pool.Cost(now[b.Name])
	if costB1 <= costB0 || costA1 >= costA0 {
		t.Fatalf("budget did not move from A to B: A $%.2f->$%.2f, B $%.2f->$%.2f",
			costA0, costA1, costB0, costB1)
	}
	if got := now.Cost(pool); got > budget+1e-9 {
		t.Fatalf("fleet plan %v busts the budget at $%.3f/hr", now, got)
	}
	// Both controllers' fleets converged to the plan.
	for _, m := range []models.Model{a, b} {
		counts := ctrl.ModelInstanceCounts(m.Name)
		for i, typ := range pool {
			if counts[typ.Name] != now[m.Name][i] {
				t.Fatalf("%s fleet %v does not match plan %v", m.Name, counts, now[m.Name])
			}
		}
	}
	// The acceptance bar: zero dropped queries across the whole shift.
	if st := ctrl.Stats(); st.Failed != 0 {
		t.Fatalf("%d queries failed during the budget shift", st.Failed)
	}
}

// TestStepScaleInKeepsFleetWhenBudgetBuysNothing: when the shrunk
// scale-in budget cannot buy any fleet, the step is a healthy no-op that
// re-arms the counter — never a persistent control error.
func TestStepScaleInKeepsFleetWhenBudgetBuysNothing(t *testing.T) {
	t.Parallel()
	m := ncf()
	initial := cloud.Config{0, 0, 2, 0}
	w := Wiring{
		Plan: func(samples map[string][]int, _ map[string]float64, budget float64) (core.FleetPlan, error) {
			if budget > 0 {
				// The shrunk budget buys nothing (e.g. the model's cheapest
				// feasible config costs more than the cheapest pool price).
				return core.FleetPlan{m.Name: cloud.Config{0, 0, 0, 0}}, nil
			}
			return core.FleetPlan{m.Name: initial.Clone()}, nil
		},
		References: map[string][]int{m.Name: samplesOf(workload.Uniform{Min: 10, Max: 60}, 200, 1)},
	}
	opts := Options{
		Window:          40,
		MinObservations: 10,
		ScaleInFloor:    0.5,
		ScaleInTicks:    2,
		Cooldown:        time.Millisecond,
	}
	ap := startAutopilot(t, initial, w, opts)
	for i := 0; i < 12; i++ {
		if res := ap.Controller().SubmitWait(m.Name, 30); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	var dec Decision
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for !dec.ScaleInTriggered && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		dec, err = ap.Step()
		if err != nil {
			t.Fatalf("scale-in with an empty plan must not error: %v", err)
		}
	}
	if !dec.ScaleInTriggered || dec.Replanned {
		t.Fatalf("expected a no-op scale-in decision: %+v", dec)
	}
	if !ap.Current().Equal(plan(m, initial)) || ap.Replans() != 0 {
		t.Fatalf("fleet must be untouched: %v, %d replans", ap.Current(), ap.Replans())
	}
	if st := ap.Status(); !st.Healthy || st.ScaleIn.TicksBelow != 0 {
		t.Fatalf("no-op scale-in must stay healthy and re-arm: healthy=%v ticks=%d", st.Healthy, st.ScaleIn.TicksBelow)
	}
	// The controller still serves.
	if res := ap.Controller().SubmitWait(m.Name, 30); res.Err != nil {
		t.Fatal(res.Err)
	}
}

// TestStepPreservesColdModelFleet: a deployed model with no traffic and
// no reference sample is invisible to the planner; a trigger on another
// model must not read that absence as "tear the cold model's fleet down
// to zero".
func TestStepPreservesColdModelFleet(t *testing.T) {
	t.Parallel()
	pool := cloud.DefaultPool()
	a := ncf()
	b := models.MustByName("MT-WND")
	initial := core.FleetPlan{
		a.Name: cloud.Config{0, 0, 1, 0},
		b.Name: cloud.Config{0, 0, 1, 0},
	}
	fleet := NewFleet(1, a, b)
	addrs, err := Deploy(fleet, pool, initial)
	if err != nil {
		fleet.Close()
		t.Fatal(err)
	}
	ctrl, err := server.NewMultiController(map[string]server.GroupSpec{
		a.Name: {Policy: kairosPolicy(a), Predict: a.Latency},
		b.Name: {Policy: kairosPolicy(b), Predict: b.Latency},
	}, 1, addrs)
	if err != nil {
		fleet.Close()
		t.Fatal(err)
	}
	ap, err := New(ctrl, initial, Wiring{
		Pool:   pool,
		Models: []models.Model{a, b},
		// The planner only ever sees model A's sample (B stays cold and
		// has no reference) and allocates nothing to B.
		Plan: func(samples map[string][]int, _ map[string]float64, _ float64) (core.FleetPlan, error) {
			if _, ok := samples[b.Name]; ok {
				t.Errorf("planner saw a sample for the cold model: %v", samples)
			}
			return core.FleetPlan{a.Name: cloud.Config{1, 0, 0, 0}}, nil
		},
		References: map[string][]int{a.Name: samplesOf(workload.Uniform{Min: 10, Max: 60}, 200, 1)},
	}, Options{
		Provider:        fleet,
		Window:          40,
		MinObservations: 10,
	})
	if err != nil {
		ctrl.Close()
		fleet.Close()
		t.Fatal(err)
	}
	defer ap.Close()

	// Drift model A; model B receives no traffic at all.
	for i := 0; i < 12; i++ {
		if res := ap.Controller().SubmitWait(a.Name, 600); res.Err != nil {
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
	// A converged to the new plan; B's fleet was carried forward, not
	// torn down.
	if got := ap.Current()[b.Name]; !got.Equal(initial[b.Name]) {
		t.Fatalf("cold model's fleet changed: %v", got)
	}
	if got := ap.Controller().ModelInstanceCounts(b.Name)[cloud.R5nLarge.Name]; got != 1 {
		t.Fatalf("cold model's instance was removed: counts=%v", got)
	}
	if res := ap.Controller().SubmitWait(b.Name, 20); res.Err != nil {
		t.Fatalf("cold model stopped serving: %v", res.Err)
	}
}
