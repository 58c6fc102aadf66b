// Package search implements the configuration-space exploration algorithms
// the paper compares Kairos+ against (Sec. 8.3, Fig. 10-11): random search,
// simulated annealing (the Sec. 4 motivation experiment), a genetic
// algorithm and Bayesian optimization. Each spends through a
// core.Session, Kairos+'s own evaluation ledger, so each counts expensive
// online evaluations the same way and can be granted the same
// sub-configuration pruning ("we purposely provide these competing
// algorithms with the same sub-configuration pruning mechanism").
package search

import (
	"fmt"
	"math"
	"math/rand"

	"kairos/internal/cloud"
	"kairos/internal/core"
)

// Random explores configurations in a seeded random order (RAND in
// Fig. 11).
func Random(s *core.Session, configs []cloud.Config, seed int64) core.SearchResult {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(len(configs))
	for _, idx := range order {
		if s.Done() {
			break
		}
		c := configs[idx]
		if s.Prunable(c) {
			continue
		}
		s.Measure(c)
	}
	return s.Result()
}

// Simulated-annealing schedule: the initial temperature, the per-step
// cooling factor (T_{k+1} = annealCooling * T_k) and the step count.
const (
	annealTemp    = 30.0
	annealCooling = 0.9
	annealSteps   = 60
)

// SimulatedAnnealing explores by local moves (add/remove one instance)
// within the budget, accepting worse configurations with Boltzmann
// probability. It reproduces the Sec. 4 motivation experiment (Fig. 2).
func SimulatedAnnealing(s *core.Session, pool cloud.Pool, budget float64, start cloud.Config, seed int64) core.SearchResult {
	if len(start) != len(pool) {
		panic(fmt.Sprintf("search: start config %v does not match pool", start))
	}
	rng := rand.New(rand.NewSource(seed))
	cur := start.Clone()
	curVal := s.Measure(cur)
	temp := annealTemp
	for step := 0; step < annealSteps && !s.Done(); step++ {
		next, ok := neighbor(rng, pool, budget, cur)
		if !ok {
			break
		}
		if s.Prunable(next) {
			temp *= annealCooling
			continue
		}
		nextVal := s.Measure(next)
		if nextVal >= curVal || rng.Float64() < math.Exp((nextVal-curVal)/temp) {
			cur, curVal = next, nextVal
		}
		temp *= annealCooling
	}
	return s.Result()
}

// neighbor proposes a single-instance add/remove staying within budget and
// non-empty.
func neighbor(rng *rand.Rand, pool cloud.Pool, budget float64, cur cloud.Config) (cloud.Config, bool) {
	for attempt := 0; attempt < 64; attempt++ {
		next := cur.Clone()
		i := rng.Intn(len(pool))
		if rng.Intn(2) == 0 {
			next[i]++
			if !pool.WithinBudget(next, budget) {
				continue
			}
		} else {
			if next[i] == 0 {
				continue
			}
			next[i]--
			if next.Total() == 0 {
				continue
			}
		}
		return next, true
	}
	return nil, false
}

// Genetic-algorithm sizing: the population, the generation count and the
// per-gene mutation probability.
const (
	genePopulation  = 12
	geneGenerations = 10
	geneMutation    = 0.25
)

// Genetic runs a steady genetic algorithm over the budgeted space (GENE in
// Fig. 11): tournament selection, uniform crossover, +/-1 mutation, budget
// repair by random removal.
func Genetic(s *core.Session, pool cloud.Pool, budget float64, configs []cloud.Config, seed int64) core.SearchResult {
	if len(configs) == 0 {
		return s.Result()
	}
	rng := rand.New(rand.NewSource(seed))
	pop := make([]cloud.Config, genePopulation)
	fit := make([]float64, genePopulation)
	for i := range pop {
		pop[i] = configs[rng.Intn(len(configs))].Clone()
	}
	measure := func(c cloud.Config) float64 {
		if s.Prunable(c) {
			return 0
		}
		return s.Measure(c)
	}
	for i := range pop {
		if s.Done() {
			return s.Result()
		}
		fit[i] = measure(pop[i])
	}
	tournament := func() cloud.Config {
		a, b := rng.Intn(len(pop)), rng.Intn(len(pop))
		if fit[a] >= fit[b] {
			return pop[a]
		}
		return pop[b]
	}
	for gen := 0; gen < geneGenerations && !s.Done(); gen++ {
		next := make([]cloud.Config, 0, len(pop))
		for len(next) < len(pop) {
			child := crossover(rng, tournament(), tournament())
			mutate(rng, child, geneMutation)
			repair(rng, pool, budget, child)
			next = append(next, child)
		}
		pop = next
		for i := range pop {
			if s.Done() {
				return s.Result()
			}
			fit[i] = measure(pop[i])
		}
	}
	return s.Result()
}

func crossover(rng *rand.Rand, a, b cloud.Config) cloud.Config {
	child := a.Clone()
	for i := range child {
		if rng.Intn(2) == 1 {
			child[i] = b[i]
		}
	}
	return child
}

func mutate(rng *rand.Rand, c cloud.Config, rate float64) {
	for i := range c {
		if rng.Float64() >= rate {
			continue
		}
		if rng.Intn(2) == 0 {
			c[i]++
		} else if c[i] > 0 {
			c[i]--
		}
	}
}

// repair removes random instances until the configuration fits the budget
// and is non-empty.
func repair(rng *rand.Rand, pool cloud.Pool, budget float64, c cloud.Config) {
	for !pool.WithinBudget(c, budget) {
		i := rng.Intn(len(c))
		if c[i] > 0 {
			c[i]--
		}
	}
	if c.Total() == 0 {
		c[rng.Intn(len(c))] = 1
	}
}
