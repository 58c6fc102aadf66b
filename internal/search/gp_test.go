package search

import (
	"math"
	"math/rand"
	"testing"
)

func TestGPInterpolatesObservations(t *testing.T) {
	gp := newGP(1.0, 1e-6)
	xs := []point{{0}, {1}, {2}, {3}}
	ys := []float64{0, 1, 4, 9}
	if err := gp.fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		mu, sigma := gp.predict(x)
		if math.Abs(mu-ys[i]) > 1e-2 {
			t.Errorf("mu(%v) = %v, want %v", x, mu, ys[i])
		}
		if sigma > 0.05 {
			t.Errorf("sigma(%v) = %v, want ~0 at observed point", x, sigma)
		}
	}
}

func TestGPUncertaintyGrowsAwayFromData(t *testing.T) {
	gp := newGP(1.0, 1e-6)
	if err := gp.fit([]point{{0}, {1}}, []float64{0, 1}); err != nil {
		t.Fatal(err)
	}
	_, near := gp.predict(point{0.5})
	_, far := gp.predict(point{10})
	if far <= near {
		t.Fatalf("sigma far (%v) should exceed sigma near (%v)", far, near)
	}
	if far > 1.01 {
		t.Fatalf("sigma far (%v) should approach the prior (1)", far)
	}
}

func TestGPEmptyPredictsPrior(t *testing.T) {
	gp := newGP(1, 1e-4)
	mu, sigma := gp.predict(point{3})
	if mu != 0 || sigma != 1 {
		t.Fatalf("prior = (%v,%v), want (0,1)", mu, sigma)
	}
}

func TestGPFitValidation(t *testing.T) {
	gp := newGP(1, 1e-4)
	if err := gp.fit(nil, nil); err == nil {
		t.Fatal("expected error on empty fit")
	}
	if err := gp.fit([]point{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("expected error on length mismatch")
	}
}

func TestNewGPPanics(t *testing.T) {
	for _, bad := range [][2]float64{{0, 1}, {1, 0}, {-1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %v", bad)
				}
			}()
			newGP(bad[0], bad[1])
		}()
	}
}

func TestCholeskyRejectsNonPD(t *testing.T) {
	_, err := cholesky([][]float64{{1, 2}, {2, 1}}) // indefinite
	if err == nil {
		t.Fatal("expected non-PD error")
	}
}

func TestExpectedImprovementProperties(t *testing.T) {
	gp := newGP(1.0, 1e-6)
	if err := gp.fit([]point{{0}, {2}}, []float64{0, 0}); err != nil {
		t.Fatal(err)
	}
	// EI is non-negative everywhere.
	for x := -3.0; x <= 5; x += 0.25 {
		if ei := gp.expectedImprovement(point{x}, 0); ei < 0 {
			t.Fatalf("EI(%v) = %v < 0", x, ei)
		}
	}
	// EI at a known point equal to the incumbent is ~0; EI in unexplored
	// territory is positive.
	atKnown := gp.expectedImprovement(point{0}, 0)
	unexplored := gp.expectedImprovement(point{10}, 0)
	if atKnown > 0.01 {
		t.Fatalf("EI at observed incumbent = %v, want ~0", atKnown)
	}
	if unexplored <= atKnown {
		t.Fatalf("EI unexplored (%v) should exceed EI at incumbent (%v)", unexplored, atKnown)
	}
}

func TestOptimizerFindsPeakOnSmoothLandscape(t *testing.T) {
	// 1-D discrete quadratic: peak at 7.
	n := 30
	candidates := make([]point, n)
	truth := make([]float64, n)
	for i := 0; i < n; i++ {
		candidates[i] = point{float64(i)}
		d := float64(i - 7)
		truth[i] = 100 - d*d
	}
	opt := &eiOptimizer{candidates: candidates, seed: 3, lengthScale: 3}
	var idxs []int
	var ys []float64
	found := -1
	for iter := 0; iter < n; iter++ {
		idx := opt.suggest(idxs, ys)
		if idx == -1 {
			break
		}
		idxs = append(idxs, idx)
		ys = append(ys, truth[idx])
		if idx == 7 {
			found = len(idxs)
			break
		}
	}
	if found == -1 {
		t.Fatal("BO never evaluated the peak")
	}
	if found > n/2 {
		t.Fatalf("BO needed %d evals of %d candidates", found, n)
	}
}

func TestOptimizerExhaustsSpace(t *testing.T) {
	candidates := []point{{0}, {1}, {2}}
	opt := &eiOptimizer{candidates: candidates, seed: 1}
	var idxs []int
	var ys []float64
	seen := map[int]bool{}
	for {
		idx := opt.suggest(idxs, ys)
		if idx == -1 {
			break
		}
		if seen[idx] {
			t.Fatalf("candidate %d suggested twice", idx)
		}
		seen[idx] = true
		idxs = append(idxs, idx)
		ys = append(ys, float64(idx))
	}
	if len(seen) != len(candidates) {
		t.Fatalf("visited %d of %d candidates", len(seen), len(candidates))
	}
	if opt.suggest(idxs, ys) != -1 {
		t.Fatal("exhausted optimizer must return -1")
	}
}

func TestOptimizerEmptySpace(t *testing.T) {
	opt := &eiOptimizer{}
	if opt.suggest(nil, nil) != -1 {
		t.Fatal("empty space must return -1")
	}
}

func TestSolversAgainstRandomSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(8) + 1
		// Build SPD matrix A = B B^T + I.
		b := make([][]float64, n)
		for i := range b {
			b[i] = make([]float64, n)
			for j := range b[i] {
				b[i][j] = rng.NormFloat64()
			}
		}
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				for k := 0; k < n; k++ {
					a[i][j] += b[i][k] * b[j][k]
				}
			}
			a[i][i] += 1
		}
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		l, err := cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		x := choleskySolve(l, rhs)
		// Check A x = rhs.
		for i := 0; i < n; i++ {
			sum := 0.0
			for j := 0; j < n; j++ {
				sum += a[i][j] * x[j]
			}
			if math.Abs(sum-rhs[i]) > 1e-8 {
				t.Fatalf("trial %d: residual %v at row %d", trial, sum-rhs[i], i)
			}
		}
	}
}
