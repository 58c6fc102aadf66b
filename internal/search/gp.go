package search

// Gaussian-process Bayesian optimization with the expected-improvement
// acquisition function over a discrete candidate set: Ribbon's
// configuration allocator ([16], "Bayesian Optimization for allocation"),
// which Bayesian drives as the RIBBON search baseline of Fig. 11.

import (
	"fmt"
	"math"
	"math/rand"
)

// point is a candidate location in the (low-dimensional, discrete) search
// space — for Kairos, an instance-count vector.
type point []float64

// gpRegressor is a Gaussian-process regressor with an RBF kernel.
type gpRegressor struct {
	// lengthScale is the RBF kernel length scale.
	lengthScale float64
	// noise is the observation noise variance added to the diagonal.
	noise float64

	xs   []point
	ys   []float64
	mean float64
	l    [][]float64 // Cholesky factor of K + noise*I
	a    []float64   // alpha = K^-1 (y - mean)
}

// newGP builds an empty regressor.
func newGP(lengthScale, noise float64) *gpRegressor {
	if lengthScale <= 0 || noise <= 0 {
		panic("search: lengthScale and noise must be positive")
	}
	return &gpRegressor{lengthScale: lengthScale, noise: noise}
}

func (g *gpRegressor) kernel(a, b point) float64 {
	d := 0.0
	for i := range a {
		diff := a[i] - b[i]
		d += diff * diff
	}
	return math.Exp(-d / (2 * g.lengthScale * g.lengthScale))
}

// fit conditions the GP on observations.
func (g *gpRegressor) fit(xs []point, ys []float64) error {
	if len(xs) != len(ys) || len(xs) == 0 {
		return fmt.Errorf("search: need matching non-empty observations, got %d/%d", len(xs), len(ys))
	}
	n := len(xs)
	g.xs = xs
	g.ys = ys
	g.mean = 0
	for _, y := range ys {
		g.mean += y
	}
	g.mean /= float64(n)

	k := make([][]float64, n)
	for i := range k {
		k[i] = make([]float64, n)
		for j := range k[i] {
			k[i][j] = g.kernel(xs[i], xs[j])
		}
		k[i][i] += g.noise
	}
	l, err := cholesky(k)
	if err != nil {
		return err
	}
	g.l = l
	resid := make([]float64, n)
	for i := range resid {
		resid[i] = ys[i] - g.mean
	}
	g.a = choleskySolve(l, resid)
	return nil
}

// predict returns the posterior mean and standard deviation at x.
func (g *gpRegressor) predict(x point) (mu, sigma float64) {
	if len(g.xs) == 0 {
		return 0, 1
	}
	n := len(g.xs)
	kstar := make([]float64, n)
	for i := range kstar {
		kstar[i] = g.kernel(x, g.xs[i])
	}
	mu = g.mean
	for i := range kstar {
		mu += kstar[i] * g.a[i]
	}
	v := forwardSolve(g.l, kstar)
	varx := g.kernel(x, x)
	for _, vi := range v {
		varx -= vi * vi
	}
	if varx < 0 {
		varx = 0
	}
	return mu, math.Sqrt(varx)
}

// cholesky factors a symmetric positive-definite matrix (lower triangular).
func cholesky(a [][]float64) ([][]float64, error) {
	n := len(a)
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a[i][j]
			for k := 0; k < j; k++ {
				sum -= l[i][k] * l[j][k]
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("search: matrix not positive definite at %d (%.3g)", i, sum)
				}
				l[i][i] = math.Sqrt(sum)
			} else {
				l[i][j] = sum / l[j][j]
			}
		}
	}
	return l, nil
}

// forwardSolve solves L v = b.
func forwardSolve(l [][]float64, b []float64) []float64 {
	n := len(b)
	v := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l[i][k] * v[k]
		}
		v[i] = sum / l[i][i]
	}
	return v
}

// choleskySolve solves (L L^T) x = b.
func choleskySolve(l [][]float64, b []float64) []float64 {
	n := len(b)
	v := forwardSolve(l, b)
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := v[i]
		for k := i + 1; k < n; k++ {
			sum -= l[k][i] * x[k]
		}
		x[i] = sum / l[i][i]
	}
	return x
}

// expectedImprovement computes EI at x against the incumbent best.
func (g *gpRegressor) expectedImprovement(x point, best float64) float64 {
	mu, sigma := g.predict(x)
	if sigma < 1e-12 {
		if mu > best {
			return mu - best
		}
		return 0
	}
	z := (mu - best) / sigma
	return (mu-best)*stdNormCDF(z) + sigma*stdNormPDF(z)
}

func stdNormPDF(z float64) float64 { return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi) }
func stdNormCDF(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }

// eiOptimizer runs EI-guided Bayesian optimization over a discrete candidate
// set, the way Ribbon allocates heterogeneous instances.
type eiOptimizer struct {
	// candidates is the discrete search space.
	candidates []point
	// initSamples seeds the GP with random candidates before the EI loop
	// (default 3).
	initSamples int
	// lengthScale and noise parametrize the GP (defaults 2.0 and 1e-4
	// relative to normalized observations).
	lengthScale, noise float64
	// seed drives the random initialization.
	seed int64
}

// suggest is called by the optimization loop with the observation history
// and returns the next candidate index to evaluate, or -1 when the space
// is exhausted.
func (o *eiOptimizer) suggest(evaluatedIdx []int, ys []float64) int {
	if len(o.candidates) == 0 {
		return -1
	}
	init := o.initSamples
	if init == 0 {
		init = 3
	}
	seen := make(map[int]bool, len(evaluatedIdx))
	for _, i := range evaluatedIdx {
		seen[i] = true
	}
	if len(seen) >= len(o.candidates) {
		return -1
	}
	rng := rand.New(rand.NewSource(o.seed + int64(len(evaluatedIdx))))
	if len(evaluatedIdx) < init {
		for {
			i := rng.Intn(len(o.candidates))
			if !seen[i] {
				return i
			}
		}
	}
	ls := o.lengthScale
	if ls == 0 {
		ls = 2
	}
	noise := o.noise
	if noise == 0 {
		noise = 1e-4
	}
	// Normalize observations to zero-mean unit-ish scale for GP stability.
	best := math.Inf(-1)
	scale := 1.0
	for _, y := range ys {
		if y > best {
			best = y
		}
		if math.Abs(y) > scale {
			scale = math.Abs(y)
		}
	}
	xs := make([]point, len(evaluatedIdx))
	norm := make([]float64, len(ys))
	for i, idx := range evaluatedIdx {
		xs[i] = o.candidates[idx]
		norm[i] = ys[i] / scale
	}
	gp := newGP(ls, noise)
	if err := gp.fit(xs, norm); err != nil {
		// Degenerate fit (e.g. duplicate points): fall back to random.
		for {
			i := rng.Intn(len(o.candidates))
			if !seen[i] {
				return i
			}
		}
	}
	bestIdx, bestEI := -1, -1.0
	for i, c := range o.candidates {
		if seen[i] {
			continue
		}
		ei := gp.expectedImprovement(c, best/scale)
		if ei > bestEI {
			bestEI = ei
			bestIdx = i
		}
	}
	return bestIdx
}
