package core

import (
	"math"

	"kairos/internal/cloud"
)

// SelectOneShot applies Kairos's similarity-based configuration pick
// (Sec. 5.2) to an upper-bound ranking: if the top-3 bounds agree on the
// base instance count, take the highest bound outright; otherwise take the
// SSE centroid of the top-10 — the configuration minimizing the sum of
// squared Euclidean distances to the other nine — landing in the dense
// region of high-throughput configurations.
func SelectOneShot(ranked []RankedConfig) cloud.Config {
	return selectOneShot(ranked, func(a, b cloud.Config) float64 { return -a.SquaredDistance(b) })
}

// SelectOneShotCosine is the ablation variant the paper rejects (Sec. 5.2:
// "other metrics such as cosine similarity do not reflect the locality of
// the promising region"): it picks the top-10 candidate with the highest
// summed cosine similarity to the others.
func SelectOneShotCosine(ranked []RankedConfig) cloud.Config {
	return selectOneShot(ranked, cosine)
}

// selectOneShot is the pick both criteria share: the top-3 base-count
// shortcut, then the top-10 candidate with the highest summed similarity
// to the other candidates (the first one on a tie).
func selectOneShot(ranked []RankedConfig, similarity func(a, b cloud.Config) float64) cloud.Config {
	if len(ranked) == 0 {
		return nil
	}
	if b := ranked[0].Config.Base(); len(ranked) < 3 ||
		ranked[1].Config.Base() == b && ranked[2].Config.Base() == b {
		return ranked[0].Config
	}
	top := ranked[:min(len(ranked), 10)]
	score := func(i int) float64 {
		sum := 0.0
		for j := range top {
			if j != i {
				sum += similarity(top[i].Config, top[j].Config)
			}
		}
		return sum
	}
	bestIdx, bestSum := 0, score(0)
	for i := 1; i < len(top); i++ {
		if s := score(i); s > bestSum {
			bestSum = s
			bestIdx = i
		}
	}
	return top[bestIdx].Config
}

func cosine(a, b cloud.Config) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += float64(a[i] * b[i])
		na += float64(a[i] * a[i])
		nb += float64(b[i] * b[i])
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// Plan is the full one-shot planning pipeline: rank the budgeted space by
// upper bound, then select with the similarity criterion. It performs no
// online evaluation (the headline property of Sec. 5.2).
func (e *Estimator) Plan(budget float64) cloud.Config {
	return SelectOneShot(e.Rank(budget))
}
