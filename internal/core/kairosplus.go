package core

import (
	"kairos/internal/cloud"
)

// EvalFunc measures the actual allowable throughput of a configuration
// (an expensive online evaluation in the paper: allocate instances, ramp
// load, watch the tail).
type EvalFunc func(cloud.Config) float64

// EvalRecord is one online evaluation performed by a search.
type EvalRecord struct {
	Config cloud.Config
	QPS    float64
}

// SearchResult reports a configuration search: Kairos+ or one of the
// baselines it is compared against.
type SearchResult struct {
	// Best is the highest-throughput configuration evaluated.
	Best cloud.Config
	// BestQPS is its measured throughput.
	BestQPS float64
	// Evaluations is the number of distinct online evaluations spent.
	Evaluations int
	// History lists evaluations in order (Fig. 12's transient trace).
	History []EvalRecord
	// ReachedTarget reports whether the stop target was hit before the
	// evaluation budget ran out.
	ReachedTarget bool
}

// Session is the online evaluation ledger of one search run: memoization
// (repeat visits are free, matching how a real system would cache a
// measured configuration), sub-configuration pruning, a stop target, and
// a hard evaluation budget. Kairos+ keeps one, and the paper grants the
// same one to every competing search (Sec. 8.3).
type Session struct {
	eval     EvalFunc
	target   float64
	maxEvals int
	prune    bool

	res       SearchResult
	memo      map[string]float64
	evaluated []cloud.Config
}

// NewSession builds a session. A positive target stops the search once a
// configuration with QPS >= target has been evaluated; a positive maxEvals
// caps spending; prune enables sub-configuration pruning against evaluated
// configurations.
func NewSession(eval EvalFunc, target float64, maxEvals int, prune bool) *Session {
	if eval == nil {
		panic("core: nil evaluator")
	}
	return &Session{
		eval:     eval,
		target:   target,
		maxEvals: maxEvals,
		prune:    prune,
		memo:     make(map[string]float64),
	}
}

// Done reports whether the search should stop (target hit or budget spent).
func (s *Session) Done() bool {
	if s.res.ReachedTarget {
		return true
	}
	return s.maxEvals > 0 && s.res.Evaluations >= s.maxEvals
}

// Prunable reports whether the configuration is dominated by an evaluated
// one (adding instances never lowers throughput, so a sub-configuration
// can never do better), so skipping it is free.
func (s *Session) Prunable(c cloud.Config) bool {
	if !s.prune {
		return false
	}
	for _, ev := range s.evaluated {
		if c.IsSubConfigOf(ev) {
			return true
		}
	}
	return false
}

// Measure evaluates a configuration (memoized) and updates the running
// result. It returns the throughput.
func (s *Session) Measure(c cloud.Config) float64 {
	key := c.Key()
	if v, ok := s.memo[key]; ok {
		return v
	}
	if s.Done() {
		// Out of budget: report the memoized floor without spending.
		return 0
	}
	v := s.eval(c)
	s.memo[key] = v
	s.evaluated = append(s.evaluated, c.Clone())
	s.res.Evaluations++
	s.res.History = append(s.res.History, EvalRecord{Config: c.Clone(), QPS: v})
	if v > s.res.BestQPS || s.res.Best == nil {
		s.res.BestQPS = v
		s.res.Best = c.Clone()
	}
	if s.target > 0 && v >= s.target {
		s.res.ReachedTarget = true
	}
	return v
}

// Result returns the accumulated outcome.
func (s *Session) Result() SearchResult { return s.res }

// KairosPlus runs Algorithm 1: walk configurations in descending
// upper-bound order, evaluate survivors, and prune (a) every configuration
// whose upper bound cannot beat the best measured throughput and (b) every
// sub-configuration of an evaluated configuration.
func KairosPlus(ranked []RankedConfig, eval EvalFunc) SearchResult {
	s := NewSession(eval, 0, 0, true)
	for _, rc := range ranked {
		// The ranking is sorted: once the bound cannot beat the best
		// measured value, nothing later can either.
		if r := s.res; r.Evaluations > 0 && rc.UpperBound <= r.BestQPS {
			break
		}
		if !s.Prunable(rc.Config) {
			s.Measure(rc.Config)
		}
	}
	return s.Result()
}
