package core

import (
	"math"
	"math/rand"
	"testing"

	"kairos/internal/cloud"
	"kairos/internal/models"
	"kairos/internal/workload"
)

// fleetSamples draws n batch sizes from dist for allocator inputs.
func fleetSamples(dist workload.BatchDistribution, n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		out[i] = dist.Sample(rng)
	}
	return out
}

// twin returns a copy of the model under a different name, so two demands
// with identical economics can race for the same budget.
func twin(m models.Model, name string) models.Model {
	out := m
	out.Name = name
	return out
}

func TestFleetPlanHelpers(t *testing.T) {
	t.Parallel()
	pool := cloud.DefaultPool()
	p := FleetPlan{
		"A": cloud.Config{1, 0, 2, 0},
		"B": cloud.Config{0, 0, 0, 0},
	}
	if got := p.Total(); got != 3 {
		t.Fatalf("Total = %d", got)
	}
	wantCost := pool.Cost(p["A"])
	if got := p.Cost(pool); got != wantCost {
		t.Fatalf("Cost = %v, want %v", got, wantCost)
	}
	if got := p.Models(); len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Fatalf("Models = %v", got)
	}
	// A missing model and an all-zero config are the same fleet.
	if !p.Equal(FleetPlan{"A": cloud.Config{1, 0, 2, 0}}) {
		t.Fatal("zero config must equal absence")
	}
	if p.Equal(FleetPlan{"A": cloud.Config{1, 0, 2, 0}, "B": cloud.Config{0, 0, 1, 0}}) {
		t.Fatal("distinct fleets must not be equal")
	}
	if p.Equal(FleetPlan{"B": cloud.Config{0, 0, 0, 0}}) {
		t.Fatal("dropping a non-empty model must not be equal")
	}
	c := p.Clone()
	c["A"][0] = 9
	if p["A"][0] == 9 {
		t.Fatal("Clone must deep-copy configs")
	}
	if s := p.String(); s != "A=(1,0,2,0) B=(0,0,0,0)" {
		t.Fatalf("String = %q", s)
	}
}

func TestPlanFleetValidation(t *testing.T) {
	t.Parallel()
	pool := cloud.DefaultPool()
	m := models.MustByName("NCF")
	samples := fleetSamples(workload.Uniform{Min: 10, Max: 60}, 500, 1)
	demand := ModelDemand{Model: m, Samples: samples}

	if _, err := PlanFleet(pool, []ModelDemand{demand}, 0); err == nil {
		t.Fatal("zero budget must error")
	}
	for _, b := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := PlanFleet(pool, []ModelDemand{demand}, b); err == nil {
			t.Fatalf("budget %v must error", b)
		}
	}
	if _, err := PlanFleet(pool, nil, 1); err == nil {
		t.Fatal("no demands must error")
	}
	if _, err := PlanFleet(pool, []ModelDemand{demand, demand}, 1); err == nil {
		t.Fatal("duplicate model must error")
	}
	if _, err := PlanFleet(pool, []ModelDemand{{Model: m}}, 1); err == nil {
		t.Fatal("empty samples must error")
	}
}

// TestPlanFleetDegenerateBudget: a budget below every positive-throughput
// configuration starves the whole fleet — all-zero configs, not an error.
func TestPlanFleetDegenerateBudget(t *testing.T) {
	t.Parallel()
	pool := cloud.DefaultPool()
	m := models.MustByName("NCF")
	samples := fleetSamples(workload.Uniform{Min: 10, Max: 60}, 500, 1)
	plan, err := PlanFleet(pool, []ModelDemand{{Model: m, Samples: samples}}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Total() != 0 {
		t.Fatalf("unaffordable budget bought %v", plan)
	}
	if _, ok := plan[m.Name]; !ok {
		t.Fatal("starved model must still appear in the plan")
	}
}

// TestPlanFleetSingleModelMatchesFrontier: with one demand the allocator
// lands on the highest-upper-bound configuration within budget.
func TestPlanFleetSingleModel(t *testing.T) {
	t.Parallel()
	pool := cloud.DefaultPool()
	m := models.MustByName("NCF")
	const budget = 0.8
	samples := fleetSamples(workload.Uniform{Min: 10, Max: 60}, 1000, 2)
	plan, err := PlanFleet(pool, []ModelDemand{{Model: m, Samples: samples}}, budget)
	if err != nil {
		t.Fatal(err)
	}
	cfg := plan[m.Name]
	if cfg.Total() == 0 {
		t.Fatalf("plan %v bought nothing", plan)
	}
	if !pool.WithinBudget(cfg, budget) {
		t.Fatalf("plan %v busts the budget", plan)
	}
	est, err := NewEstimator(pool, m, samples)
	if err != nil {
		t.Fatal(err)
	}
	best := est.Rank(budget)[0].UpperBound
	if got := est.UpperBound(cfg); got < best*(1-1e-9) {
		t.Fatalf("single-model fleet plan %v reaches %.1f QPS, frontier best is %.1f", cfg, got, best)
	}
}

// TestPlanFleetStarvesUnaffordableModel: when one model's cheapest useful
// configuration (the base GPU, for a large-batch mix) no longer fits after
// covering the other model, it is starved and the budget flows to the
// servable model.
func TestPlanFleetStarvesUnaffordableModel(t *testing.T) {
	t.Parallel()
	pool := cloud.DefaultPool()
	m := models.MustByName("NCF")
	small := ModelDemand{Model: twin(m, "small-mix"), Samples: fleetSamples(workload.Uniform{Min: 10, Max: 60}, 800, 3)}
	// Batches above every CPU cutoff: only the GPU ($0.526/hr) serves them.
	large := ModelDemand{Model: twin(m, "large-mix"), Samples: fleetSamples(workload.Uniform{Min: 500, Max: 800}, 800, 4)}

	// $0.45 covers the small-mix model's first CPU but never the GPU.
	plan, err := PlanFleet(pool, []ModelDemand{small, large}, 0.45)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan["large-mix"].Total(); got != 0 {
		t.Fatalf("unaffordable model was funded: %v", plan)
	}
	if got := plan["small-mix"].Total(); got == 0 {
		t.Fatalf("servable model starved: %v", plan)
	}
	if plan.Cost(pool) > 0.45+1e-9 {
		t.Fatalf("plan %v busts the budget", plan)
	}
}

// TestPlanFleetCoverageBeforeUpgrades: a model that converts dollars to
// throughput more slowly still gets its first configuration before the
// faster model takes the whole budget.
func TestPlanFleetCoverageBeforeUpgrades(t *testing.T) {
	t.Parallel()
	pool := cloud.DefaultPool()
	ncf := models.MustByName("NCF")
	wnd := models.MustByName("MT-WND") // ~8x slower per dollar on small batches
	demands := []ModelDemand{
		{Model: ncf, Samples: fleetSamples(workload.Uniform{Min: 10, Max: 60}, 800, 5)},
		{Model: wnd, Samples: fleetSamples(workload.Uniform{Min: 10, Max: 80}, 800, 6)},
	}
	plan, err := PlanFleet(pool, demands, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if plan[ncf.Name].Total() == 0 || plan[wnd.Name].Total() == 0 {
		t.Fatalf("both models must be served under $0.9: %v", plan)
	}
	// The efficient model gets the upgrades beyond coverage.
	if plan[ncf.Name].Total() <= plan[wnd.Name].Total() {
		t.Fatalf("marginal dollars must flow to the efficient model: %v", plan)
	}
	if plan.Cost(pool) > 0.9+1e-9 {
		t.Fatalf("plan %v busts the budget", plan)
	}
}

// TestPlanFleetEqualMarginalTie: two demands with identical economics and
// a budget that fits exactly one instance — the lexicographically smaller
// model name wins, deterministically.
func TestPlanFleetEqualMarginalTie(t *testing.T) {
	t.Parallel()
	pool := cloud.DefaultPool()
	m := models.MustByName("NCF")
	samples := fleetSamples(workload.Uniform{Min: 10, Max: 60}, 800, 7)
	a := ModelDemand{Model: twin(m, "alpha"), Samples: samples}
	b := ModelDemand{Model: twin(m, "beta"), Samples: samples}

	// One r5n.large ($0.149) fits; the second does not.
	for _, order := range [][]ModelDemand{{a, b}, {b, a}} {
		plan, err := PlanFleet(pool, order, 0.15)
		if err != nil {
			t.Fatal(err)
		}
		if plan["alpha"].Total() != 1 || plan["beta"].Total() != 0 {
			t.Fatalf("tie must break toward the smaller name regardless of demand order: %v", plan)
		}
	}

	// With room for both, each gets covered before either is upgraded.
	plan, err := PlanFleet(pool, []ModelDemand{a, b}, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	if plan["alpha"].Total() != 1 || plan["beta"].Total() != 1 {
		t.Fatalf("equal demands under 2x budget must each get one instance: %v", plan)
	}
}

// TestPlanFleetDemandCapLeavesSurplusUnspent: a model whose observed
// arrival rate is far below what the budget could buy must stop at
// demand+headroom and leave the surplus unspent — not convert every free
// dollar into capacity nothing will use.
func TestPlanFleetDemandCapLeavesSurplusUnspent(t *testing.T) {
	t.Parallel()
	pool := cloud.DefaultPool()
	m := models.MustByName("NCF")
	const budget = 2.5
	samples := fleetSamples(workload.Uniform{Min: 10, Max: 60}, 1000, 2)

	uncapped, err := PlanFleet(pool, []ModelDemand{{Model: m, Samples: samples}}, budget)
	if err != nil {
		t.Fatal(err)
	}
	est, err := NewEstimator(pool, m, samples)
	if err != nil {
		t.Fatal(err)
	}
	maxQPS := est.UpperBound(uncapped[m.Name])
	if maxQPS <= 0 {
		t.Fatalf("uncapped plan %v serves nothing", uncapped)
	}

	// Demand a tenth of the achievable throughput.
	capped, err := PlanFleet(pool, []ModelDemand{{Model: m, Samples: samples, ArrivalQPS: maxQPS / 10}}, budget)
	if err != nil {
		t.Fatal(err)
	}
	if capped[m.Name].Total() == 0 {
		t.Fatalf("capped plan %v must still cover the demand", capped)
	}
	spent, uncappedCost := capped.Cost(pool), uncapped.Cost(pool)
	if spent >= uncappedCost {
		t.Fatalf("demand cap left nothing unspent: capped $%.3f vs uncapped $%.3f (%v vs %v)",
			spent, uncappedCost, capped, uncapped)
	}
	// The capped fleet still covers demand + default headroom.
	want := maxQPS / 10 * (1 + DefaultHeadroom)
	if got := est.UpperBound(capped[m.Name]); got < want*(1-1e-9) && got < maxQPS*(1-1e-9) {
		t.Fatalf("capped plan %v reaches %.1f QPS, demand ceiling is %.1f", capped, got, want)
	}
	// An explicit headroom widens the ceiling and may buy more.
	wide, err := PlanFleet(pool, []ModelDemand{{Model: m, Samples: samples, ArrivalQPS: maxQPS / 10, Headroom: 5}}, budget)
	if err != nil {
		t.Fatal(err)
	}
	if wide.Cost(pool) < spent-1e-9 {
		t.Fatalf("wider headroom bought less: $%.3f vs $%.3f", wide.Cost(pool), spent)
	}
}

// TestPlanFleetDemandCapSaturation: when observed demand exceeds
// everything the budget can buy, the cap never binds and the plan is
// exactly the uncapped maximize-throughput one.
func TestPlanFleetDemandCapSaturation(t *testing.T) {
	t.Parallel()
	pool := cloud.DefaultPool()
	m := models.MustByName("NCF")
	const budget = 0.8
	samples := fleetSamples(workload.Uniform{Min: 10, Max: 60}, 1000, 2)

	uncapped, err := PlanFleet(pool, []ModelDemand{{Model: m, Samples: samples}}, budget)
	if err != nil {
		t.Fatal(err)
	}
	saturated, err := PlanFleet(pool, []ModelDemand{{Model: m, Samples: samples, ArrivalQPS: 1e9}}, budget)
	if err != nil {
		t.Fatal(err)
	}
	if !saturated.Equal(uncapped) {
		t.Fatalf("saturating demand must reproduce the uncapped plan: %v vs %v", saturated, uncapped)
	}
}

// TestPlanFleetDemandCapFreesBudgetForOtherModels: one model's capped
// demand releases upgrade dollars the other (uncapped) model can spend.
func TestPlanFleetDemandCapFreesBudgetForOtherModels(t *testing.T) {
	t.Parallel()
	pool := cloud.DefaultPool()
	m := models.MustByName("NCF")
	samples := fleetSamples(workload.Uniform{Min: 10, Max: 60}, 800, 7)
	const budget = 0.9

	base, err := PlanFleet(pool, []ModelDemand{
		{Model: twin(m, "alpha"), Samples: samples},
		{Model: twin(m, "beta"), Samples: samples},
	}, budget)
	if err != nil {
		t.Fatal(err)
	}
	est, err := NewEstimator(pool, m, samples)
	if err != nil {
		t.Fatal(err)
	}
	// Cap alpha at roughly its coverage throughput; beta stays uncapped.
	capQPS := est.Rank(budget)[len(est.Rank(budget))-1].UpperBound // cheapest config's bound
	capped, err := PlanFleet(pool, []ModelDemand{
		{Model: twin(m, "alpha"), Samples: samples, ArrivalQPS: capQPS / (1 + DefaultHeadroom)},
		{Model: twin(m, "beta"), Samples: samples},
	}, budget)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Cost(capped["alpha"]) > pool.Cost(base["alpha"])+1e-9 {
		t.Fatalf("capped model grew: %v vs %v", capped, base)
	}
	if pool.Cost(capped["beta"]) < pool.Cost(base["beta"])-1e-9 {
		t.Fatalf("freed budget must not shrink the uncapped model: %v vs %v", capped, base)
	}
	if capped["beta"].Total() <= capped["alpha"].Total() {
		t.Fatalf("upgrade dollars must flow to the uncapped model: %v", capped)
	}
}

// flatModel builds a model whose latency is constant per instance type —
// a lever for shaping frontier economics precisely.
func flatModel(name string, qos float64, lat map[string]float64) models.Model {
	curves := make(map[string]models.Linear, len(lat))
	for typ, ms := range lat {
		curves[typ] = models.Linear{Intercept: ms}
	}
	return models.Model{Name: name, QoS: qos, Curves: curves}
}

// TestPlanFleetCoverageBuysCheapestFirst guards the coverage guarantee
// against ratio-greedy overshoot: model A's best-ratio jump is the
// expensive GPU, but coverage must buy A's cheap CPU first so model B's
// own first step still fits the budget.
func TestPlanFleetCoverageBuysCheapestFirst(t *testing.T) {
	t.Parallel()
	pool := cloud.DefaultPool()
	infeasible := 1e6 // violates any QoS: the type never serves this model
	// A: CPU serves at 100 QPS ($0.149), GPU at 1000 QPS ($0.526) — the
	// GPU jump has the best marginal ratio anywhere (~1900 QPS/$).
	a := flatModel("A", 50, map[string]float64{
		cloud.G4dnXlarge.Name: 1,
		cloud.C5n2xlarge.Name: infeasible,
		cloud.R5nLarge.Name:   10,
		cloud.T3Xlarge.Name:   infeasible,
	})
	// B: CPU serves at 200 QPS; its first step ratio (~1342 QPS/$) beats
	// A's CPU but not A's GPU.
	b := flatModel("B", 50, map[string]float64{
		cloud.G4dnXlarge.Name: 2.5,
		cloud.C5n2xlarge.Name: infeasible,
		cloud.R5nLarge.Name:   5,
		cloud.T3Xlarge.Name:   infeasible,
	})
	samples := fleetSamples(workload.Uniform{Min: 10, Max: 60}, 500, 9)
	demands := []ModelDemand{
		{Model: a, Samples: samples},
		{Model: b, Samples: samples},
	}
	// $0.60: A's GPU (0.526) would leave B unservable (needs 0.149);
	// coverage must fund A's CPU (0.149) and B's CPU (0.149) instead.
	plan, err := PlanFleet(pool, demands, 0.60)
	if err != nil {
		t.Fatal(err)
	}
	if plan["A"].Total() == 0 || plan["B"].Total() == 0 {
		t.Fatalf("coverage overshoot starved a coverable model: %v", plan)
	}
	if plan.Cost(pool) > 0.60+1e-9 {
		t.Fatalf("plan %v busts the budget", plan)
	}
}
