package core

import (
	"slices"

	"kairos/internal/cloud"
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
	// spot capacity. The on-demand floor filters on it. Spot-free pools
	// (and spot-free configurations) have od == ub.
	od float64
}

// enumEntry is one candidate configuration with its price. The
// enumeration depends only on the pool and the budget — never on the
// model — so one cost-sorted copy is shared by every model's frontier
// instead of re-enumerating and re-sorting per model.
type enumEntry struct {
	cfg  cloud.Config
	cost float64
}

// enumerateByCost lists every configuration within budget in ascending
// price. The sort is stable: Enumerate yields numeric-lexicographic
// order, so equal-cost candidates keep a deterministic relative order.
func enumerateByCost(pool cloud.Pool, budget float64) []enumEntry {
	configs := pool.Enumerate(budget)
	entries := make([]enumEntry, len(configs))
	for i, cfg := range configs {
		entries[i] = enumEntry{cfg: cfg, cost: pool.Cost(cfg)}
	}
	slices.SortStableFunc(entries, func(a, b enumEntry) int {
		switch {
		case a.cost < b.cost:
			return -1
		case a.cost > b.cost:
			return 1
		}
		return 0
	})
	return entries
}

// ladder is one model's Pareto frontier plus the greedy allocator's
// view of it. pts is never mutated by the allocation: the demand cap,
// the on-demand floor, and the cap-reaching prefix are read-time views
// (capUB clamp, floor filter, n prefix).
type ladder struct {
	name  string
	pts   []frontierPoint
	n     int     // effective frontier length after cap truncation
	capUB float64 // demand ceiling (0 = uncapped)
	floor float64 // on-demand survival floor in QPS (0 = unfloored)
	first int     // cheapest floor-allowed point; -1 when none fits
	cur   int     // greedy cursor; -1 is the empty configuration
}

// newLadder binds a model's frontier to its demand: it sets the cap and
// the floor (the floor only in pools with spot capacity), truncates the
// view one past the first floor-allowed point that covers the cap —
// everything later costs more without serving additional demand — and
// finds the cheapest floor-allowed point.
func newLadder(d ModelDemand, pts []frontierPoint, hasSpot bool) *ladder {
	l := &ladder{name: d.Model.Name, pts: pts, n: len(pts), capUB: d.cap(), first: -1, cur: -1}
	if hasSpot {
		l.floor = d.floorQPS()
	}
	if l.capUB > 0 {
		// The bound is not monotone along a two-staircase frontier, so
		// this is a linear scan for the first floor-allowed point that
		// covers the cap; any later allowed point costs at least as much
		// for the same clamped bound.
		for k := range pts {
			if l.allowed(k) && pts[k].ub >= l.capUB {
				l.n = k + 1
				break
			}
		}
	}
	for k := 0; k < l.n; k++ {
		if l.allowed(k) {
			l.first = k
			break
		}
	}
	return l
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

// frontier builds est's Pareto frontier from the cost-sorted enumeration:
// ascending cost, keeping only configurations not dominated in (ub, od)
// jointly by a cheaper (or equal-cost, earlier-kept) one. A spot-heavy
// configuration with a great bound but no revocation survival must not
// shadow the on-demand configuration a floored model needs, so both
// staircases coexist on one frontier (cost non-decreasing; within a cost,
// ub descending). Without spot capacity od == ub, and this is the classic
// strictly-increasing cost/bound staircase: the best bound of each cost
// group (first in enumeration order on ties), kept only when it beats
// every cheaper point. Frontier configs alias the enumeration entries.
// spotIdx lists the pool's spot-market indices; vQa is the caller's
// upperBoundInto scratch, returned for the next model's frontier.
func frontier(est *Estimator, enum []enumEntry, spotIdx []int, vQa []float64) ([]frontierPoint, []float64) {
	var pts, group, stair []frontierPoint
	var odCfg cloud.Config
	for i := 0; i < len(enum); {
		cost := enum[i].cost
		group = group[:0]
		for ; i < len(enum) && enum[i].cost == cost; i++ {
			var ub float64
			ub, vQa = est.upperBoundInto(enum[i].cfg, vQa)
			if ub <= 0 {
				continue
			}
			od := ub
			if holdsSpot(enum[i].cfg, spotIdx) {
				odCfg = append(odCfg[:0], enum[i].cfg...)
				for _, k := range spotIdx {
					odCfg[k] = 0
				}
				od, vQa = est.upperBoundInto(odCfg, vQa)
			}
			group = append(group, frontierPoint{cfg: enum[i].cfg, cost: cost, ub: ub, od: od})
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
	}
	return pts, vQa
}

// holdsSpot reports whether cfg buys any spot capacity; without it the
// configuration's od equals its ub.
func holdsSpot(cfg cloud.Config, spotIdx []int) bool {
	for _, i := range spotIdx {
		if cfg[i] > 0 {
			return true
		}
	}
	return false
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
