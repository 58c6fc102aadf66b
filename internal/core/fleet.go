package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"kairos/internal/cloud"
	"kairos/internal/models"
)

// DefaultHeadroom is the fractional capacity margin a demand-capped
// model keeps above its observed arrival rate (ModelDemand.ArrivalQPS).
const DefaultHeadroom = 0.25

// ModelDemand couples one served model with the batch-size sample
// describing its recent traffic — the per-model input to the shared-budget
// fleet allocator. The sample plays the same role as the query monitor's
// snapshot in single-model planning (Sec. 5.2).
type ModelDemand struct {
	Model   models.Model
	Samples []int

	// ArrivalQPS is the model's observed arrival rate in model-time QPS.
	// When positive, the allocator treats ArrivalQPS*(1+Headroom) as the
	// model's useful throughput ceiling: capacity beyond observed demand
	// serves nothing, so the budget it would cost is left unspent instead
	// of buying throughput no query will ever use. Zero means the demand
	// is unknown and the model's allocation is uncapped (the original
	// maximize-throughput behavior).
	ArrivalQPS float64
	// Headroom is the fractional overprovision kept above ArrivalQPS so
	// ordinary rate fluctuation does not immediately breach the SLO;
	// non-positive uses DefaultHeadroom. Ignored while ArrivalQPS is zero.
	Headroom float64

	// OnDemandFloor arms the spot-survival constraint, as a fraction of
	// ArrivalQPS: every configuration the allocator may select for the
	// model must retain an on-demand-only throughput upper bound of at
	// least OnDemandFloor*ArrivalQPS, so losing every spot instance at
	// once still leaves that fraction of the observed demand servable
	// (1 = full demand survives on on-demand capacity alone). Zero
	// disables the floor: a model that tolerates losing its spot capacity
	// opts out this way. It is also inert while ArrivalQPS is zero and in
	// pools without spot capacity.
	OnDemandFloor float64
}

// cap returns the demand's useful-throughput ceiling, or 0 when uncapped.
func (d ModelDemand) cap() float64 {
	if d.ArrivalQPS <= 0 {
		return 0
	}
	head := d.Headroom
	if head <= 0 {
		head = DefaultHeadroom
	}
	return d.ArrivalQPS * (1 + head)
}

// floorQPS returns the demand's on-demand survival floor in QPS, or 0
// when no floor applies. The floor never exceeds the demand cap:
// surviving revocation requires at most what the cap lets the model
// serve anyway.
func (d ModelDemand) floorQPS() float64 {
	if d.OnDemandFloor <= 0 || d.ArrivalQPS <= 0 {
		return 0
	}
	f := d.OnDemandFloor * d.ArrivalQPS
	if c := d.cap(); f > c {
		f = c
	}
	return f
}

// FleetPlan is a multi-model deployment: one heterogeneous configuration
// per model name, all drawn from the same pool and paid from one shared
// budget. A model may be absent (or mapped to an all-zero configuration)
// when the allocator could not afford any throughput for it.
type FleetPlan map[string]cloud.Config

// Clone deep-copies the plan.
func (p FleetPlan) Clone() FleetPlan {
	out := make(FleetPlan, len(p))
	for name, cfg := range p {
		out[name] = cfg.Clone()
	}
	return out
}

// Total returns the number of instances across every model's fleet.
func (p FleetPlan) Total() int {
	n := 0
	for _, cfg := range p {
		n += cfg.Total()
	}
	return n
}

// Cost returns the plan's aggregate price in $/hr under the pool.
func (p FleetPlan) Cost(pool cloud.Pool) float64 {
	total := 0.0
	for _, cfg := range p {
		total += pool.Cost(cfg)
	}
	return total
}

// Config returns the named model's configuration, or nil when the plan
// holds none.
func (p FleetPlan) Config(model string) cloud.Config { return p[model] }

// Models lists the plan's model names in sorted order.
func (p FleetPlan) Models() []string {
	out := make([]string, 0, len(p))
	for name := range p {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Equal reports whether two plans allocate identical fleets. A missing
// model and an all-zero configuration are equivalent.
func (p FleetPlan) Equal(o FleetPlan) bool {
	for name, cfg := range p {
		oc, ok := o[name]
		if !ok {
			if cfg.Total() != 0 {
				return false
			}
			continue
		}
		if !cfg.Equal(oc) {
			return false
		}
	}
	for name, oc := range o {
		if _, ok := p[name]; !ok && oc.Total() != 0 {
			return false
		}
	}
	return true
}

// String renders the plan as "model=(a,b,c) ..." in model-name order.
func (p FleetPlan) String() string {
	var b strings.Builder
	for i, name := range p.Models() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", name, p[name])
	}
	return b.String()
}

// PlanFleet splits one dollar budget across several models' fleets by
// greedy marginal throughput-per-dollar over each model's ranked
// configurations (the multi-model generalization of the paper's one-shot
// planner; INFaaS-style model-less allocation).
//
// The allocator works on each model's cost/upper-bound Pareto frontier in
// two phases:
//
//  1. Coverage: every model whose cheapest positive-throughput
//     configuration still fits the remaining budget is funded first (in
//     descending first-step efficiency), so no servable model is starved
//     merely because another model converts dollars to QPS faster.
//  2. Greedy: the remaining budget buys frontier upgrades one at a time,
//     always taking the upgrade with the highest marginal upper bound per
//     marginal dollar across all models. Ties break deterministically
//     toward the lexicographically smaller model name.
//
// A model whose cheapest useful configuration never fits (e.g. it needs
// the base GPU but the budget is spent) ends with an all-zero
// configuration — the degenerate "starved" outcome callers must expect
// under tight budgets.
//
// Demands with an observed ArrivalQPS are demand-capped: each such
// model's frontier is clamped at ArrivalQPS*(1+Headroom), so once its
// planned throughput covers the observed demand plus the margin, further
// upgrades have zero marginal value and the budget they would cost stays
// unspent. When demand exceeds everything the budget can buy, the cap
// never binds and the plan is the uncapped maximize-throughput one.
//
// In pools carrying spot-market capacity (cloud.Pool.WithSpotMarket),
// demands with an OnDemandFloor are additionally risk-bounded: the
// allocator only considers configurations whose on-demand-only upper
// bound covers the floor, so a floored model survives losing every spot
// instance at once (see ModelDemand.OnDemandFloor). Like the demand cap,
// the floor is applied at read time: one frontier per model serves both.
//
// Every call plans from scratch: it enumerates the budgeted space once,
// builds each model's frontier over it, and allocates. There is no cache
// to keep in step with the query monitor's windows, which move with every
// completed query.
func PlanFleet(pool cloud.Pool, demands []ModelDemand, budget float64) (FleetPlan, error) {
	if !(budget > 0) || math.IsInf(budget, 1) {
		return nil, fmt.Errorf("core: fleet planning needs a positive budget (got %v)", budget)
	}
	if len(demands) == 0 {
		return nil, fmt.Errorf("core: fleet planning needs at least one model demand")
	}
	enum := enumerateByCost(pool, budget)
	var spotIdx []int
	for i, t := range pool {
		if t.Market == cloud.Spot {
			spotIdx = append(spotIdx, i)
		}
	}
	// One upperBoundInto scratch serves every frontier scan of the call.
	var vQa []float64
	ladders := make([]*ladder, 0, len(demands))
	seen := make(map[string]bool, len(demands))
	for _, d := range demands {
		if d.Model.Name == "" {
			return nil, fmt.Errorf("core: fleet demand with an unnamed model")
		}
		if seen[d.Model.Name] {
			return nil, fmt.Errorf("core: duplicate fleet demand for model %s", d.Model.Name)
		}
		seen[d.Model.Name] = true
		est, err := NewEstimator(pool, d.Model, d.Samples)
		if err != nil {
			return nil, fmt.Errorf("core: fleet demand for %s: %w", d.Model.Name, err)
		}
		var pts []frontierPoint
		pts, vQa = frontier(est, enum, spotIdx, vQa)
		ladders = append(ladders, newLadder(d, pts, len(spotIdx) > 0))
	}
	slices.SortFunc(ladders, func(a, b *ladder) int { return strings.Compare(a.name, b.name) })

	// Coverage first: uncovered models with an affordable first step
	// take absolute priority over upgrades, and coverage buys exactly
	// the cheapest positive-throughput floor-allowed configuration. The
	// remaining budget only shrinks, so funding in descending first-step
	// efficiency order reproduces the rescan-per-round pick sequence. A
	// floored model with no allowed point is starved outright — the
	// allocator never trades the survival constraint away.
	remaining := budget
	var cov []*ladder
	for _, l := range ladders {
		if l.first >= 0 {
			cov = append(cov, l)
		}
	}
	slices.SortFunc(cov, func(a, b *ladder) int {
		ra := a.ubAt(a.first) / a.pts[a.first].cost
		rb := b.ubAt(b.first) / b.pts[b.first].cost
		switch {
		case ra > rb:
			return -1
		case ra < rb:
			return 1
		}
		return strings.Compare(a.name, b.name)
	})
	for _, l := range cov {
		if l.pts[l.first].cost <= remaining+costEps {
			remaining -= l.pts[l.first].cost
			l.cur = l.first
		}
	}

	// Greedy upgrades: each round takes the single best jump across all
	// ladders. Ladders are in name order and only a strictly better ratio
	// displaces the incumbent, so ties go to the smaller name.
	for {
		var best *ladder
		bestIdx, bestRatio := -1, 0.0
		for _, l := range ladders {
			if idx, ratio := l.bestJump(remaining); idx >= 0 && (best == nil || ratio > bestRatio) {
				best, bestIdx, bestRatio = l, idx, ratio
			}
		}
		if best == nil {
			break
		}
		curCost, _ := best.at()
		remaining -= best.pts[bestIdx].cost - curCost
		best.cur = bestIdx
	}

	plan := make(FleetPlan, len(ladders))
	for _, l := range ladders {
		if l.cur < 0 {
			plan[l.name] = cloud.NewConfig(pool)
		} else {
			plan[l.name] = l.pts[l.cur].cfg.Clone()
		}
	}
	return plan, nil
}
