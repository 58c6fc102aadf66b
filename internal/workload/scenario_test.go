package workload

import (
	"math"
	"math/rand"
	"testing"
)

func TestParetoClampsAndSkews(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := Pareto{Scale: 20, Alpha: 1.2}
	small, capped := 0, 0
	const n = 20000
	for i := 0; i < n; i++ {
		b := d.Sample(rng)
		if b < 1 || b > MaxBatch {
			t.Fatalf("sample %d outside [1,%d]", b, MaxBatch)
		}
		if b <= 60 {
			small++
		}
		if b == MaxBatch {
			capped++
		}
	}
	// Heavy tail: mass concentrates at the scale, yet the cap is reached.
	if float64(small)/n < 0.5 {
		t.Fatalf("only %d/%d samples near the scale", small, n)
	}
	if capped == 0 {
		t.Fatal("tail never reached the batch cap")
	}
}

func TestScenarioGenerateDeterministic(t *testing.T) {
	s := FlashCrowd(10_000, 50, 200, DefaultTrace())
	a := s.Generate(7)
	b := s.Generate(7)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := s.Generate(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced the identical stream")
	}
}

func TestScenarioGenerateOrderedAndBounded(t *testing.T) {
	for _, name := range []string{"flash-crowd", "diurnal", "batch-mix-inversion", "heavy-tail"} {
		s, err := ScenarioByName(name, 5_000, 80)
		if err != nil {
			t.Fatal(err)
		}
		arr := s.Generate(42)
		if len(arr) == 0 {
			t.Fatalf("%s: empty stream", name)
		}
		prev := -1.0
		for i, a := range arr {
			if a.AtMS < prev {
				t.Fatalf("%s: arrival %d out of order", name, i)
			}
			prev = a.AtMS
			if a.AtMS < 0 || a.AtMS >= s.DurationMS() {
				t.Fatalf("%s: arrival %d at %.1fms outside [0,%.1f)", name, i, a.AtMS, s.DurationMS())
			}
			if a.Batch < 1 || a.Batch > MaxBatch {
				t.Fatalf("%s: arrival %d batch %d out of range", name, i, a.Batch)
			}
		}
	}
	if _, err := ScenarioByName("no-such", 1000, 10); err == nil {
		t.Fatal("unknown scenario must error")
	}
}

func TestFlashCrowdSpikesTheMiddle(t *testing.T) {
	const dur = 60_000.0
	s := FlashCrowd(dur, 50, 200, Fixed(10))
	arr := s.Generate(3)
	// The spike hold occupies [40%, 60%); its rate is 4x the base band
	// [0, 35%).
	base, spike := 0, 0
	for _, a := range arr {
		switch {
		case a.AtMS < dur*0.35:
			base++
		case a.AtMS >= dur*0.40 && a.AtMS < dur*0.60:
			spike++
		}
	}
	baseRate := float64(base) / (dur * 0.35)
	spikeRate := float64(spike) / (dur * 0.20)
	if spikeRate < 3*baseRate {
		t.Fatalf("spike rate %.4f not well above base %.4f", spikeRate, baseRate)
	}
}

func TestBatchMixInversionFlipsTheMix(t *testing.T) {
	s := BatchMixInversion(60_000, 60, Fixed(10), Fixed(400))
	arr := s.Generate(5)
	for _, a := range arr {
		want := 10
		if a.AtMS >= 30_000 {
			want = 400
		}
		if a.Batch != want {
			t.Fatalf("arrival at %.1fms has batch %d, want %d", a.AtMS, a.Batch, want)
		}
	}
}

func TestScenarioTraceRoundTrips(t *testing.T) {
	s, err := ScenarioByName("heavy-tail", 2_000, 100)
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Trace(11)
	if tr.Description == "" || len(tr.Arrivals) == 0 {
		t.Fatalf("trace = %+v", tr)
	}
	if got := s.DurationMS(); got != 2_000 {
		t.Fatalf("duration %.1f", got)
	}
	if got := s.PeakQPS(); got != 100 {
		t.Fatalf("peak %.1f", got)
	}
}

// TestScenarioByNameRefusesBadInputs: the command-line surface refuses a
// rate or length that is not finite and positive instead of handing it to
// Generate, where an infinite rate never advanced and NaN yielded nothing.
func TestScenarioByNameRefusesBadInputs(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, name := range []string{"flash-crowd", "diurnal", "batch-mix-inversion", "heavy-tail"} {
		for _, c := range []struct{ durMS, qps float64 }{
			{1000, 0}, {1000, -1}, {1000, nan}, {1000, inf},
			{0, 100}, {-1, 100}, {nan, 100}, {inf, 100},
		} {
			if _, err := ScenarioByName(name, c.durMS, c.qps); err == nil {
				t.Errorf("ScenarioByName(%q, %v, %v): nil error", name, c.durMS, c.qps)
			}
		}
		if _, err := ScenarioByName(name, 1000, 100); err != nil {
			t.Errorf("ScenarioByName(%q, 1000, 100): %v", name, err)
		}
	}
}
