package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"kairos/internal/cloud"
	"kairos/internal/models"
)

const costEps = 1e-9

// frontierPoint is one step on a model's cost/throughput efficient
// frontier: the cheapest configuration achieving its upper bound.
type frontierPoint struct {
	cfg  cloud.Config
	cost float64
	ub   float64
	// od is the configuration's upper bound with every spot count zeroed
	// — the throughput that survives a simultaneous revocation of all
	// spot capacity. It depends only on the samples and the pool (never
	// on demand), so it is cached with the frontier; the read-time
	// on-demand floor filters on it. Spot-free pools (and spot-free
	// configurations) have od == ub.
	od float64
}

// enumEntry is one candidate configuration with its price. The
// enumeration depends only on the pool and the budget — never on the
// model — so one cost-sorted copy is shared by every model's frontier
// rebuild instead of re-enumerating and re-sorting per model.
type enumEntry struct {
	cfg  cloud.Config
	cost float64
}

// ladder is one model's cached Pareto frontier plus the greedy
// allocator's per-plan working state. pts is owned by the planner and
// never mutated by a plan: the demand cap, the on-demand floor, and the
// plan budget are applied as read-time views (capUB clamp, floor filter,
// n prefix), so a cap or floor change between ticks cannot corrupt the
// cached frontier.
type ladder struct {
	name   string
	demand ModelDemand
	est    *Estimator
	fp     uint64 // order-insensitive fingerprint of demand.Samples
	pts    []frontierPoint
	active bool

	// Per-Plan working state.
	n     int     // effective frontier length after budget/cap truncation
	capUB float64 // demand ceiling (0 = uncapped)
	floor float64 // on-demand survival floor in QPS (0 = unfloored)
	first int     // cheapest floor-allowed point; -1 when none fits
	cur   int     // greedy cursor; -1 is the empty configuration

	result cloud.Config // reused output buffer for Plan's FleetPlan
}

// allowed reports whether point i satisfies the on-demand floor: any
// configuration the greedy cursor may rest on must keep at least the
// floor servable after losing all spot capacity.
func (l *ladder) allowed(i int) bool {
	return l.floor <= 0 || l.pts[i].od >= l.floor-costEps
}

// ubAt returns point i's upper bound clamped at the demand ceiling:
// capacity beyond observed demand serves nothing, so its marginal value
// is zero.
func (l *ladder) ubAt(i int) float64 {
	if ub := l.pts[i].ub; l.capUB <= 0 || ub < l.capUB {
		return ub
	}
	return l.capUB
}

func (l *ladder) at() (cost, ub float64) {
	if l.cur < 0 {
		return 0, 0
	}
	return l.pts[l.cur].cost, l.ubAt(l.cur)
}

// bestJump finds the ladder's most efficient affordable upgrade: the
// frontier point beyond the cursor maximizing marginal upper bound per
// marginal dollar within the remaining budget. It returns the point
// index and the ratio, or (-1, 0) when no upgrade fits.
func (l *ladder) bestJump(remaining float64) (int, float64) {
	curCost, curUB := l.at()
	bestIdx, bestRatio := -1, 0.0
	for j := l.cur + 1; j < l.n; j++ {
		dc := l.pts[j].cost - curCost
		if dc > remaining+costEps {
			break // frontier cost is non-decreasing: later points cost more
		}
		if !l.allowed(j) {
			continue
		}
		du := l.ubAt(j) - curUB
		if du <= 0 || dc <= 0 {
			continue
		}
		if ratio := du / dc; ratio > bestRatio+costEps {
			bestIdx, bestRatio = j, ratio
		}
	}
	return bestIdx, bestRatio
}

// jumpEntry is one ladder's best candidate upgrade in the greedy heap.
type jumpEntry struct {
	l     *ladder
	idx   int
	ratio float64
}

// jumpBefore orders candidate jumps: higher marginal throughput per
// dollar first, ties toward the lexicographically smaller model name
// (names are unique, so this is a strict total order).
func jumpBefore(a, b jumpEntry) bool {
	if a.ratio != b.ratio {
		return a.ratio > b.ratio
	}
	return a.l.name < b.l.name
}

func pushJump(h []jumpEntry, e jumpEntry) []jumpEntry {
	h = append(h, e)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !jumpBefore(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

func popJump(h []jumpEntry) []jumpEntry {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && jumpBefore(h[c+1], h[c]) {
			c++
		}
		if !jumpBefore(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return h
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed bit mixer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fingerprintSamples validates a demand window and returns an
// order-insensitive 64-bit fingerprint (a commutative sum of per-sample
// mixes, plus the length). The query monitor hands back windows in
// unspecified order, so two snapshots of the same multiset must produce
// the same fingerprint — and invalidate nothing.
func fingerprintSamples(samples []int) (uint64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("core: estimator needs batch samples")
	}
	var sum uint64
	for _, b := range samples {
		if b < 1 || b > models.MaxBatch {
			return 0, fmt.Errorf("core: batch samples outside [1,%d]", models.MaxBatch)
		}
		sum += mix64(uint64(b))
	}
	return mix64(sum ^ uint64(len(samples))), nil
}

// FleetPlanner is the incremental form of PlanFleet. It caches the
// budget enumeration (shared across models) and each model's Pareto
// frontier across calls, keyed by a fingerprint of the model's sample
// window: a replan only rebuilds the frontiers of models whose windows
// actually moved, and a steady-state replan with no invalidations reuses
// every buffer and is near-zero-alloc. Plans are identical to what a
// from-scratch PlanFleet over the same demands would produce (PlanFleet
// itself is a fresh planner used once).
//
// A planner assumes a model name identifies one immutable model (latency
// curves and QoS): swapping a different model in under the same name
// must be done through a fresh planner. Not safe for concurrent use.
type FleetPlanner struct {
	pool       cloud.Pool
	enumBudget float64
	enum       []enumEntry

	// spotIdx holds the pool indices of spot-market types; in a
	// spot-free pool it is empty and every od equals its ub.
	spotIdx []int

	models map[string]*ladder
	order  []*ladder // active ladders in name order
	stale  bool      // active set changed; order needs rebuilding

	plan FleetPlan // reused result map, aliased by Plan's return value

	// Scratch reused across calls.
	vQa   []float64
	cov   []*ladder
	heap  []jumpEntry
	fps   []uint64
	seen  map[string]bool
	odCfg cloud.Config    // spot-zeroed copy for od evaluation
	group []frontierPoint // scanFrontier per-cost-group candidates
	stair []frontierPoint // scanFrontier (ub, od) maxima of kept points
}

// NewFleetPlanner builds a planner over the pool. enumBudget is the
// largest budget the planner expects to plan for (typically the
// engine's full budget): the candidate enumeration is built once at
// that budget and smaller per-call budgets plan over an affordable
// prefix of it. Planning above enumBudget re-enumerates (and rebuilds
// every cached frontier) at the larger budget.
func NewFleetPlanner(pool cloud.Pool, enumBudget float64) (*FleetPlanner, error) {
	if enumBudget <= 0 {
		return nil, fmt.Errorf("core: fleet planning needs a positive budget (got %v)", enumBudget)
	}
	p := &FleetPlanner{pool: pool, models: make(map[string]*ladder)}
	for i, t := range pool {
		if t.Market == cloud.Spot {
			p.spotIdx = append(p.spotIdx, i)
		}
	}
	p.enumerate(enumBudget)
	return p, nil
}

// enumerate rebuilds the shared candidate set at the given budget and
// rescans every cached frontier against it.
func (p *FleetPlanner) enumerate(budget float64) {
	configs := p.pool.Enumerate(budget)
	entries := make([]enumEntry, len(configs))
	for i, cfg := range configs {
		entries[i] = enumEntry{cfg: cfg, cost: p.pool.Cost(cfg)}
	}
	// Stable by cost: Enumerate yields numeric-lexicographic order, so
	// equal-cost candidates keep a deterministic relative order.
	slices.SortStableFunc(entries, func(a, b enumEntry) int {
		switch {
		case a.cost < b.cost:
			return -1
		case a.cost > b.cost:
			return 1
		}
		return 0
	})
	p.enum = entries
	p.enumBudget = budget
	for _, l := range p.models {
		if l.est != nil {
			p.scanFrontier(l)
		}
	}
}

// scanFrontier rebuilds l's Pareto frontier from the shared enumeration:
// ascending cost, keeping only configurations not dominated in (ub, od)
// jointly by a cheaper (or equal-cost, earlier-kept) one. A spot-heavy
// configuration with a great bound but no revocation survival must not
// shadow the on-demand configuration a floored model needs, so both
// staircases coexist on one frontier (cost non-decreasing; within a cost,
// ub descending). Without spot capacity od == ub, and this is the classic
// strictly-increasing cost/bound staircase: the best bound of each cost
// group (first in enumeration order on ties), kept only when it beats
// every cheaper point. Frontier configs alias the enumeration entries,
// which stay untouched until the next enumerate — and that rescans every
// frontier.
func (p *FleetPlanner) scanFrontier(l *ladder) {
	pts, stair := l.pts[:0], p.stair[:0]
	for i := 0; i < len(p.enum); {
		cost := p.enum[i].cost
		group := p.group[:0]
		for ; i < len(p.enum) && p.enum[i].cost == cost; i++ {
			var ub float64
			ub, p.vQa = l.est.upperBoundInto(p.enum[i].cfg, p.vQa)
			if ub <= 0 {
				continue
			}
			od := ub
			if odCfg := p.spotFree(p.enum[i].cfg); odCfg != nil {
				od, p.vQa = l.est.upperBoundInto(odCfg, p.vQa)
			}
			group = append(group, frontierPoint{cfg: p.enum[i].cfg, cost: cost, ub: ub, od: od})
		}
		// Within an equal-cost group the highest bound leads, so the first
		// kept point at each cost is that cost's best, and the rest survive
		// only on better survival.
		slices.SortStableFunc(group, func(a, b frontierPoint) int {
			switch {
			case a.ub > b.ub:
				return -1
			case a.ub < b.ub:
				return 1
			case a.od > b.od:
				return -1
			case a.od < b.od:
				return 1
			}
			return 0
		})
		for _, pt := range group {
			if stairDominated(stair, pt.ub, pt.od) {
				continue
			}
			pts = append(pts, pt)
			stair = stairAdd(stair, pt.ub, pt.od)
		}
		p.group = group[:0]
	}
	l.pts = pts
	p.stair = stair[:0]
}

// spotFree returns cfg with every spot count zeroed (in planner-owned
// scratch), or nil when cfg holds no spot capacity and its od equals its
// ub.
func (p *FleetPlanner) spotFree(cfg cloud.Config) cloud.Config {
	has := false
	for _, i := range p.spotIdx {
		if cfg[i] > 0 {
			has = true
			break
		}
	}
	if !has {
		return nil
	}
	if cap(p.odCfg) < len(cfg) {
		p.odCfg = make(cloud.Config, len(cfg))
	}
	od := p.odCfg[:len(cfg)]
	copy(od, cfg)
	for _, i := range p.spotIdx {
		od[i] = 0
	}
	p.odCfg = od
	return od
}

// stairDominated reports whether an already-kept (cheaper or equal-cost)
// point achieves at least both bounds; stair holds the (ub, od) Pareto
// maxima of the kept points, so it stays a handful of entries.
func stairDominated(stair []frontierPoint, ub, od float64) bool {
	for _, s := range stair {
		if s.ub >= ub && s.od >= od {
			return true
		}
	}
	return false
}

// stairAdd inserts a kept point's bounds, evicting maxima it covers.
func stairAdd(stair []frontierPoint, ub, od float64) []frontierPoint {
	out := stair[:0]
	for _, s := range stair {
		if s.ub <= ub && s.od <= od {
			continue
		}
		out = append(out, s)
	}
	return append(out, frontierPoint{ub: ub, od: od})
}

// SetDemands declares the full demand set for subsequent Plan calls.
// Models whose sample-window fingerprint is unchanged keep their cached
// frontier; only moved windows pay the estimator reset and the frontier
// rescan. Demand caps (ArrivalQPS/Headroom) and on-demand floors
// (Class/OnDemandFloor) are plan-time inputs and never invalidate the
// cache. Models absent from the set are excluded
// from planning but keep their cache in case they return. On error the
// planner's cached state is unchanged.
func (p *FleetPlanner) SetDemands(demands []ModelDemand) error {
	if len(demands) == 0 {
		return fmt.Errorf("core: fleet planning needs at least one model demand")
	}
	// Validate everything before touching any cached state.
	if p.seen == nil {
		p.seen = make(map[string]bool, len(demands))
	} else {
		clear(p.seen)
	}
	p.fps = p.fps[:0]
	for _, d := range demands {
		if d.Model.Name == "" {
			return fmt.Errorf("core: fleet demand with an unnamed model")
		}
		if p.seen[d.Model.Name] {
			return fmt.Errorf("core: duplicate fleet demand for model %s", d.Model.Name)
		}
		p.seen[d.Model.Name] = true
		fp, err := fingerprintSamples(d.Samples)
		if err != nil {
			return fmt.Errorf("core: fleet demand for %s: %w", d.Model.Name, err)
		}
		p.fps = append(p.fps, fp)
	}
	for _, l := range p.models {
		if l.active && !p.seen[l.name] {
			l.active = false
			p.stale = true
		}
	}
	for i, d := range demands {
		if err := p.applyDemand(d, p.fps[i]); err != nil {
			return err
		}
	}
	return nil
}

// applyDemand installs one validated demand, rebuilding the model's
// frontier only when its window fingerprint moved (or it is new).
func (p *FleetPlanner) applyDemand(d ModelDemand, fp uint64) error {
	l := p.models[d.Model.Name]
	if l == nil {
		l = &ladder{name: d.Model.Name}
		p.models[l.name] = l
	}
	if !l.active {
		l.active = true
		p.stale = true
	}
	rebuild := l.est == nil || fp != l.fp
	l.demand = d
	l.fp = fp
	if rebuild {
		if l.est == nil {
			est, err := NewEstimator(p.pool, d.Model, d.Samples)
			if err != nil {
				return fmt.Errorf("core: fleet demand for %s: %w", d.Model.Name, err)
			}
			l.est = est
		} else if err := l.est.Reset(d.Samples); err != nil {
			return fmt.Errorf("core: fleet demand for %s: %w", d.Model.Name, err)
		}
		p.scanFrontier(l)
	}
	return nil
}

// activeOrder returns the active ladders in name order, rebuilding the
// cached order only when the active set changed.
func (p *FleetPlanner) activeOrder() []*ladder {
	if p.stale {
		p.order = p.order[:0]
		for _, l := range p.models {
			if l.active {
				p.order = append(p.order, l)
			}
		}
		slices.SortFunc(p.order, func(a, b *ladder) int { return strings.Compare(a.name, b.name) })
		p.stale = false
	}
	return p.order
}

// Plan allocates budget across the active demand set: the coverage
// phase funds every affordable model's cheapest useful configuration in
// descending first-step efficiency, then the greedy phase buys frontier
// upgrades by marginal throughput per dollar off a lazy max-heap, so
// each upgrade costs one ladder rescan plus O(log models) instead of a
// scan over every ladder. budget <= 0 plans at the enumeration budget;
// a larger budget re-enumerates first.
//
// The returned plan (map and configurations) is owned by the planner
// and valid only until the next Plan call — Clone it to retain.
func (p *FleetPlanner) Plan(budget float64) (FleetPlan, error) {
	if budget <= 0 {
		budget = p.enumBudget
	}
	if budget > p.enumBudget {
		p.enumerate(budget)
	}
	order := p.activeOrder()
	if len(order) == 0 {
		return nil, fmt.Errorf("core: fleet planning needs at least one model demand")
	}

	// Per-call ladder views: reset the cursor, bind the demand ceiling
	// and the on-demand floor, and truncate to the affordable prefix.
	// Everything at or past the first usable cap-reaching point costs
	// more without serving additional demand, so the view ends one past
	// it. The floor, like the cap, is a read-time filter — the cached
	// frontier is never touched.
	hasSpot := len(p.spotIdx) > 0
	for _, l := range order {
		l.cur = -1
		l.capUB = l.demand.cap()
		l.floor = 0
		if hasSpot {
			l.floor = l.demand.floorQPS()
		}
		pts := l.pts
		n := len(pts)
		if budget < p.enumBudget {
			n = sort.Search(n, func(i int) bool { return pts[i].cost > budget+costEps })
		}
		if l.capUB > 0 {
			// The bound is not monotone along a two-staircase frontier, so
			// this is a linear scan for the first floor-allowed point that
			// covers the cap; any later allowed point costs at least as
			// much for the same clamped bound.
			for k := 0; k < n; k++ {
				if l.allowed(k) && pts[k].ub >= l.capUB {
					n = k + 1
					break
				}
			}
		}
		l.n = n
		l.first = -1
		for k := 0; k < l.n; k++ {
			if l.allowed(k) {
				l.first = k
				break
			}
		}
	}

	// Coverage first: uncovered models with an affordable first step
	// take absolute priority over upgrades, and coverage buys exactly
	// the cheapest positive-throughput floor-allowed configuration. The
	// remaining budget only shrinks, so funding in descending first-step
	// efficiency order reproduces the rescan-per-round pick sequence. A
	// floored model with no allowed point is starved outright — the
	// allocator never trades the survival constraint away.
	remaining := budget
	cov := p.cov[:0]
	for _, l := range order {
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
	p.cov = cov

	// Greedy upgrades off a lazy max-heap. Cached ratios are upper
	// bounds of the live ones (the remaining budget only shrinks, so a
	// ladder's best jump only gets worse), so the top is re-validated
	// before it is taken: if the refreshed key still beats the next-best
	// cached key it is the true maximum, otherwise it goes back in. A
	// re-push strictly decreases the key, so the loop terminates.
	h := p.heap[:0]
	for _, l := range order {
		if idx, ratio := l.bestJump(remaining); idx >= 0 {
			h = pushJump(h, jumpEntry{l: l, idx: idx, ratio: ratio})
		}
	}
	for len(h) > 0 {
		top := h[0]
		h = popJump(h)
		idx, ratio := top.l.bestJump(remaining)
		if idx < 0 {
			continue
		}
		if fresh := (jumpEntry{l: top.l, idx: idx, ratio: ratio}); len(h) > 0 && jumpBefore(h[0], fresh) {
			h = pushJump(h, fresh)
			continue
		}
		curCost, _ := top.l.at()
		remaining -= top.l.pts[idx].cost - curCost
		top.l.cur = idx
		if idx, ratio := top.l.bestJump(remaining); idx >= 0 {
			h = pushJump(h, jumpEntry{l: top.l, idx: idx, ratio: ratio})
		}
	}
	p.heap = h[:0]

	// Result: the planner-owned map and the per-ladder config buffers
	// are reused call over call, so the steady path allocates nothing.
	if p.plan == nil {
		p.plan = make(FleetPlan, len(order))
	}
	for name := range p.plan {
		if l := p.models[name]; l == nil || !l.active {
			delete(p.plan, name)
		}
	}
	for _, l := range order {
		if cap(l.result) < len(p.pool) {
			l.result = make(cloud.Config, len(p.pool))
		}
		cfg := l.result[:len(p.pool)]
		if l.cur < 0 {
			for i := range cfg {
				cfg[i] = 0
			}
		} else {
			copy(cfg, l.pts[l.cur].cfg)
		}
		l.result = cfg
		p.plan[l.name] = cfg
	}
	return p.plan, nil
}
