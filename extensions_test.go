package kairos

import (
	"math/rand"
	"testing"
)

func TestFacadePartitionedDistributor(t *testing.T) {
	t.Parallel()
	res, err := testEngine(t, WithPolicy("kairos+partitioned"), WithPartitions(2), WithSeed(5)).Evaluate(Config{2, 0, 10, 0}, RunOptions{
		RatePerSec: 40, DurationMS: 20000, WarmupMS: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Measured.Count == 0 {
		t.Fatal("nothing measured")
	}
	if !res.MeetsQoS {
		t.Fatalf("partitioned controller violates QoS at light load: p99=%.1f", res.P99)
	}
}

func TestFacadeSynthesizeTrace(t *testing.T) {
	tr := SynthesizeTrace(3, DefaultTrace(), 50, 200)
	if len(tr.Arrivals) != 200 {
		t.Fatalf("trace length %d", len(tr.Arrivals))
	}
}

func TestFacadeUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := Uniform(5, 9)
	for i := 0; i < 200; i++ {
		if b := d.Sample(rng); b < 5 || b > 9 {
			t.Fatalf("sample %d outside [5,9]", b)
		}
	}
}
