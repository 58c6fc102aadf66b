package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"kairos/internal/cloud"
	"kairos/internal/models"
	"kairos/internal/workload"
)

// TestUpperBoundFig7Scenario1 reproduces the paper's worked example where
// the base instance is the bottleneck: Qb=100, Qb_s+=90, Qa=150, f=0.6
// gives QPSmax = 90/0.4 = 225 (Eq. 9).
func TestUpperBoundFig7Scenario1(t *testing.T) {
	got := UpperBoundRaw(1, 100, 90, []float64{150}, 0.6)
	if math.Abs(got-225) > 1e-9 {
		t.Fatalf("QPSmax = %v, want 225", got)
	}
}

// TestUpperBoundFig7Scenario2 reproduces the auxiliary-bottleneck example:
// Qb=100, Qb_s+=90, Qa=140, f=0.7 gives 140/0.7 + (90-60)/90*100 = 233.3
// (Eq. 11).
func TestUpperBoundFig7Scenario2(t *testing.T) {
	got := UpperBoundRaw(1, 100, 90, []float64{140}, 0.7)
	want := 140.0/0.7 + (90.0-60.0)/90.0*100.0
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("QPSmax = %v, want %v", got, want)
	}
}

func TestUpperBoundRawMultiNode(t *testing.T) {
	// Eq. 12/13: doubling every count doubles the bound.
	one := UpperBoundRaw(1, 100, 90, []float64{140}, 0.7)
	two := UpperBoundRaw(2, 100, 90, []float64{280}, 0.7)
	if math.Abs(two-2*one) > 1e-9 {
		t.Fatalf("2x nodes: %v, want %v", two, 2*one)
	}
}

func TestUpperBoundRawEdgeCases(t *testing.T) {
	// No auxiliaries: base serves everything.
	if got := UpperBoundRaw(3, 50, 40, nil, 0); got != 150 {
		t.Fatalf("base-only bound = %v, want 150", got)
	}
	// f'=1: every query fits the auxiliary region; base adds full rate.
	if got := UpperBoundRaw(2, 50, 0, []float64{70}, 1); got != 170 {
		t.Fatalf("f'=1 bound = %v, want 170", got)
	}
	// No base instances with f'<1: the s+ tail is unservable.
	if got := UpperBoundRaw(0, 0, 0, []float64{100}, 0.8); got != 0 {
		t.Fatalf("u=0 bound = %v, want 0", got)
	}
	// No base, f'=1: auxiliaries alone carry the whole mix.
	if got := UpperBoundRaw(0, 0, 0, []float64{100}, 1); got != 100 {
		t.Fatalf("u=0,f=1 bound = %v, want 100", got)
	}
}

func defaultSamples(t *testing.T, n int, dist workload.BatchDistribution) []int {
	t.Helper()
	rng := rand.New(rand.NewSource(20))
	out := make([]int, n)
	for i := range out {
		out[i] = dist.Sample(rng)
	}
	return out
}

func newRM2Estimator(t *testing.T) *Estimator {
	t.Helper()
	e, err := NewEstimator(cloud.ThreeTypePool(), models.MustByName("RM2"),
		defaultSamples(t, 10000, workload.DefaultTrace()))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEstimatorRejectsBadSamples(t *testing.T) {
	pool := cloud.ThreeTypePool()
	m := models.MustByName("RM2")
	if _, err := NewEstimator(pool, m, nil); err == nil {
		t.Fatal("expected error for empty samples")
	}
	if _, err := NewEstimator(pool, m, []int{0}); err == nil {
		t.Fatal("expected error for out-of-range samples")
	}
}

func TestEstimatorCutoffsMatchModel(t *testing.T) {
	e := newRM2Estimator(t)
	m := models.MustByName("RM2")
	pool := cloud.ThreeTypePool()
	for i, it := range pool {
		if got, want := e.Cutoff(i), m.CutoffBatch(it.Name); got != want {
			t.Errorf("%s cutoff = %d, want %d", it.Name, got, want)
		}
	}
}

func TestEstimatorQoSOverrideRaisesCutoffs(t *testing.T) {
	m := models.MustByName("RM2")
	samples := defaultSamples(t, 2000, workload.DefaultTrace())
	strict, err := NewEstimator(cloud.ThreeTypePool(), m, samples)
	if err != nil {
		t.Fatal(err)
	}
	relaxed, err := NewEstimator(cloud.ThreeTypePool(), m.WithQoS(m.QoS*1.2), samples)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		if relaxed.Cutoff(i) <= strict.Cutoff(i) {
			t.Errorf("type %d: relaxed cutoff %d not above strict %d", i, relaxed.Cutoff(i), strict.Cutoff(i))
		}
	}
}

func TestUpperBoundHomogeneousIsAnalytic(t *testing.T) {
	// For a base-only configuration the bound must equal u * 1000/E[lat].
	e := newRM2Estimator(t)
	m := models.MustByName("RM2")
	sum := 0.0
	for _, b := range e.sorted {
		sum += m.Latency(cloud.G4dnXlarge.Name, b)
	}
	want := 4 * 1000 / (sum / float64(len(e.sorted)))
	got := e.UpperBound(cloud.Config{4, 0, 0})
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("homogeneous UB = %v, want %v", got, want)
	}
}

func TestUpperBoundZeroBaseIsZero(t *testing.T) {
	e := newRM2Estimator(t)
	if got := e.UpperBound(cloud.Config{0, 2, 5}); got != 0 {
		t.Fatalf("zero-base UB = %v, want 0 (f' < 1 with the default trace)", got)
	}
}

// TestUpperBoundBelowOracle pins the paper's own validation (Fig. 14,
// observation i): the upper bound is "lower than but close to the Oracle
// throughput" — it caps what Kairos-style split-by-size policies achieve,
// while the clairvoyant ORCL scheduler (which chooses its own split point)
// sits above it. We assert UB <= Oracle with sampling slack, and that UB
// stays within the same order (tightness).
func TestUpperBoundBelowOracle(t *testing.T) {
	t.Parallel()
	pool := cloud.ThreeTypePool()
	for _, name := range []string{"RM2", "WND"} {
		m := models.MustByName(name)
		samples := defaultSamples(t, 20000, workload.DefaultTrace())
		e, err := NewEstimator(pool, m, samples)
		if err != nil {
			t.Fatal(err)
		}
		var configs []cloud.Config
		for _, c := range pool.Enumerate(2.5) {
			if c.Base() >= 1 {
				configs = append(configs, c)
			}
		}
		rng := rand.New(rand.NewSource(21))
		for trial := 0; trial < 12; trial++ {
			cfg := configs[rng.Intn(len(configs))]
			ub := e.UpperBound(cfg)
			oracle := simOracle(m, pool, cfg)
			auxTypes := 0
			for i := 1; i < len(cfg); i++ {
				if cfg[i] > 0 {
					auxTypes++
				}
			}
			if auxTypes <= 1 {
				// Single auxiliary type: the shared-region formula is exact
				// and the free-split oracle dominates it.
				if ub > oracle*1.05 {
					t.Errorf("%s %v: UB %v exceeds oracle %v", name, cfg, ub, oracle)
				}
			} else if ub > oracle*1.8 {
				// Multiple auxiliary types: the paper's simplification
				// deliberately over-estimates ("makes the upper bound
				// estimation more optimistic", Sec. 5.2) but must stay in
				// the same order so the ranking remains meaningful.
				t.Errorf("%s %v: multi-aux UB %v wildly above oracle %v", name, cfg, ub, oracle)
			}
			if ub < oracle*0.35 {
				t.Errorf("%s %v: UB %v far below oracle %v (bound too loose)", name, cfg, ub, oracle)
			}
		}
	}
}

func TestUpperBoundMonotoneInInstances(t *testing.T) {
	e := newRM2Estimator(t)
	f := func(a, b, c uint8) bool {
		cfg := cloud.Config{int(a % 4), int(b % 4), int(c % 8)}
		bigger := cfg.Clone()
		bigger[rand.Intn(3)]++
		return e.UpperBound(bigger) >= e.UpperBound(cfg)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRankSortedAndBudgeted(t *testing.T) {
	e := newRM2Estimator(t)
	ranked := e.Rank(2.5)
	if len(ranked) == 0 {
		t.Fatal("empty ranking")
	}
	pool := cloud.ThreeTypePool()
	for i, rc := range ranked {
		if !pool.WithinBudget(rc.Config, 2.5) {
			t.Fatalf("ranked config %v exceeds budget", rc.Config)
		}
		if i > 0 && rc.UpperBound > ranked[i-1].UpperBound {
			t.Fatalf("ranking not sorted at %d", i)
		}
	}
	// The top of the ranking must beat the homogeneous configuration's
	// bound — heterogeneity's headroom (Sec. 4).
	homUB := e.UpperBound(pool.Homogeneous(2.5))
	if ranked[0].UpperBound <= homUB {
		t.Fatalf("top UB %v does not exceed homogeneous %v", ranked[0].UpperBound, homUB)
	}
}

func TestRankDeterministic(t *testing.T) {
	e := newRM2Estimator(t)
	a := e.Rank(2.5)
	b := e.Rank(2.5)
	for i := range a {
		if !a[i].Config.Equal(b[i].Config) || a[i].UpperBound != b[i].UpperBound {
			t.Fatal("ranking not deterministic")
		}
	}
}
