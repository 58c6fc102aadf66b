package kairos

import (
	"math/rand"
	"testing"
)

func sampleBatches(n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	d := DefaultTrace()
	out := make([]int, n)
	for i := range out {
		out[i] = d.Sample(rng)
	}
	return out
}

func TestFacadeCatalogs(t *testing.T) {
	if len(DefaultPool()) != 4 {
		t.Fatal("default pool must have 4 types")
	}
	if len(Models()) != 5 {
		t.Fatal("catalog must have 5 models")
	}
	if _, err := ModelByName("RM2"); err != nil {
		t.Fatal(err)
	}
	if _, err := ModelByName("nope"); err == nil {
		t.Fatal("unknown model must error")
	}
}

func TestFacadeClusterLifecycle(t *testing.T) {
	t.Parallel()
	e := testEngine(t, WithModels("DIEN")) // kairos+warm, seed 3
	cfg := Config{2, 0, 4, 0}
	res, err := e.Evaluate(cfg, RunOptions{RatePerSec: 50, DurationMS: 20000, WarmupMS: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Measured.Count == 0 {
		t.Fatal("nothing measured")
	}
	if qps, err := e.AllowableThroughput(cfg); err != nil || qps <= 0 {
		t.Fatalf("allowable throughput = %v, %v; must be positive", qps, err)
	}
	if qps, err := e.OracleThroughput(cfg); err != nil || qps <= 0 {
		t.Fatalf("oracle throughput = %v, %v; must be positive", qps, err)
	}
}

func TestFacadeColdStartDistributorLearns(t *testing.T) {
	t.Parallel()
	res, err := testEngine(t, WithPolicy("kairos"), WithSeed(4)).Evaluate(Config{2, 0, 4, 0}, RunOptions{
		RatePerSec: 20, DurationMS: 60000, WarmupMS: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.MeetsQoS {
		t.Fatalf("cold-start Kairos did not converge: p99=%.1f", res.P99)
	}
}

func TestFacadeBaselinesOrdering(t *testing.T) {
	t.Parallel()
	const seed = 5
	cfg := Config{2, 0, 6, 0}
	qps := func(policy string) float64 {
		got, err := testEngine(t, WithPolicy(policy), WithSeed(seed)).AllowableThroughput(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	kairos, ribbon, clkwrk, drs := qps("kairos+warm"), qps("ribbon"), qps("clockwork"), qps("drs")
	orcl, err := testEngine(t, WithSeed(seed)).OracleThroughput(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !(kairos > ribbon) {
		t.Errorf("KAIROS (%.1f) must beat RIBBON (%.1f)", kairos, ribbon)
	}
	if !(kairos >= clkwrk*0.98) {
		t.Errorf("KAIROS (%.1f) must not trail CLKWRK (%.1f)", kairos, clkwrk)
	}
	if orcl < kairos {
		t.Errorf("ORCL (%.1f) must dominate KAIROS (%.1f)", orcl, kairos)
	}
	if drs <= 0 {
		t.Error("DRS must have positive throughput")
	}
}
