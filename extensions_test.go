package kairos

import (
	"math/rand"
	"testing"
)

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
