package search

import "kairos/internal/cloud"

// Bayesian explores with Gaussian-process expected improvement, Ribbon's
// allocation strategy (the RIBBON bars of Fig. 11). Pruned candidates are
// skipped without spending evaluations, mirroring the advantage the paper
// grants the competing algorithms.
func Bayesian(s *Session, configs []cloud.Config, seed int64) Result {
	if len(configs) == 0 {
		return s.Result()
	}
	candidates := make([]point, len(configs))
	for i, c := range configs {
		p := make(point, len(c))
		for j, n := range c {
			p[j] = float64(n)
		}
		candidates[i] = p
	}
	opt := &eiOptimizer{candidates: candidates, seed: seed}
	var evaluatedIdx []int
	var ys []float64
	skipped := make(map[int]bool)
	for !s.Done() {
		idx := opt.suggest(evaluatedIdx, ys)
		for idx != -1 && (skipped[idx] || s.Prunable(configs[idx])) {
			// Mark as seen for the optimizer without spending an eval.
			skipped[idx] = true
			evaluatedIdx = append(evaluatedIdx, idx)
			ys = append(ys, 0)
			idx = opt.suggest(evaluatedIdx, ys)
		}
		if idx == -1 {
			break
		}
		qps := s.Measure(configs[idx])
		evaluatedIdx = append(evaluatedIdx, idx)
		ys = append(ys, qps)
	}
	return s.Result()
}
