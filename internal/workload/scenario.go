package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// Pareto is a heavy-tailed batch-size distribution: batch ~ Scale/U^(1/Alpha)
// truncated into [1, MaxBatch]. Small Alpha (≈1–1.5) produces the
// occasional enormous batch that dominates an instance's service time —
// the heavy-tailed service-time weather a production fleet must survive.
type Pareto struct {
	// Scale is the minimum (and modal) batch size.
	Scale float64
	// Alpha is the tail exponent; smaller is heavier.
	Alpha float64
}

// Sample implements BatchDistribution.
func (d Pareto) Sample(rng *rand.Rand) int {
	if d.Scale < 1 || d.Alpha <= 0 {
		panic(fmt.Sprintf("workload: invalid pareto(scale=%v,alpha=%v)", d.Scale, d.Alpha))
	}
	// 1-U avoids the Float64()==0 pole.
	return clampBatch(d.Scale / math.Pow(1-rng.Float64(), 1/d.Alpha))
}

// Name implements BatchDistribution.
func (d Pareto) Name() string { return fmt.Sprintf("pareto(scale=%.0f,alpha=%.2f)", d.Scale, d.Alpha) }

// Phase is one segment of a scenario: the arrival rate ramps linearly
// from StartQPS to EndQPS over DurationMS, with batch sizes drawn from
// Dist. A constant-rate segment sets StartQPS == EndQPS.
type Phase struct {
	// DurationMS is the segment length in model milliseconds.
	DurationMS float64
	// StartQPS and EndQPS bound the linear rate ramp (queries/second).
	StartQPS, EndQPS float64
	// Dist draws the segment's batch sizes.
	Dist BatchDistribution
}

// rateAt interpolates the phase's arrival rate at offset t in [0, DurationMS].
func (p Phase) rateAt(t float64) float64 {
	if p.DurationMS <= 0 {
		return p.StartQPS
	}
	return p.StartQPS + (p.EndQPS-p.StartQPS)*(t/p.DurationMS)
}

// generators recycles Generate's random sources: reseeding one leaves it
// in the state a fresh rand.NewSource(seed) starts in, and a fresh one is
// ~5 KB of set-up per stream.
var generators = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// Scenario is a named adversarial workload shape: a sequence of rate/mix
// phases replayed against the serving path. Scenarios are pure
// descriptions; Generate turns one into a concrete arrival stream
// deterministically from a seed, so every soak run is bit-reproducible.
type Scenario struct {
	// Name identifies the scenario in reports and BENCH_soak.json.
	Name string
	// Phases play back-to-back.
	Phases []Phase
}

// DurationMS is the scenario's total length in model milliseconds.
func (s Scenario) DurationMS() float64 {
	total := 0.0
	for _, p := range s.Phases {
		total += p.DurationMS
	}
	return total
}

// PeakQPS is the scenario's maximum instantaneous arrival rate.
func (s Scenario) PeakQPS() float64 {
	peak := 0.0
	for _, p := range s.Phases {
		peak = math.Max(peak, math.Max(p.StartQPS, p.EndQPS))
	}
	return peak
}

// Generate realizes the scenario as a time-ordered arrival stream,
// deterministically from seed. Each phase's non-homogeneous Poisson
// process is generated by thinning: candidates arrive at the phase's peak
// rate and are accepted with probability rate(t)/peak, which is exact for
// any bounded rate function and keeps one stream of randomness per
// scenario (same seed, same arrivals, bit for bit).
func (s Scenario) Generate(seed int64) []Arrival {
	expected := 0.0
	for i, p := range s.Phases {
		if !finiteNonNegative(p.DurationMS) || !finiteNonNegative(p.StartQPS) || !finiteNonNegative(p.EndQPS) {
			panic(fmt.Sprintf("workload: scenario %q phase %d: duration %v and rates %v→%v must be finite and non-negative",
				s.Name, i, p.DurationMS, p.StartQPS, p.EndQPS))
		}
		if p.DurationMS > 0 && p.Dist == nil {
			panic(fmt.Sprintf("workload: scenario %q phase without a distribution", s.Name))
		}
		expected += (p.StartQPS + p.EndQPS) / 2 * p.DurationMS / 1000
	}
	rng := generators.Get().(*rand.Rand)
	defer generators.Put(rng)
	rng.Seed(seed)
	out := make([]Arrival, 0, poissonCap(expected))
	offset := 0.0
	for _, p := range s.Phases {
		if p.DurationMS <= 0 {
			continue
		}
		peak := math.Max(p.StartQPS, p.EndQPS)
		if peak <= 0 {
			offset += p.DurationMS
			continue
		}
		meanGapMS := 1000 / peak
		t := rng.ExpFloat64() * meanGapMS
		for t < p.DurationMS {
			if rng.Float64()*peak < p.rateAt(t) {
				out = append(out, Arrival{AtMS: offset + t, Batch: p.Dist.Sample(rng)})
			}
			t += rng.ExpFloat64() * meanGapMS
		}
		offset += p.DurationMS
	}
	return out
}

// Trace renders the generated stream as a serializable Trace, recording
// the scenario name and seed in the description.
func (s Scenario) Trace(seed int64) Trace {
	return Trace{
		Description: fmt.Sprintf("scenario %s, seed=%d", s.Name, seed),
		Arrivals:    s.Generate(seed),
	}
}

// FlashCrowd is a steady base load with a sudden spike: ramp to spikeQPS
// in 5% of the duration, hold for 20%, decay, return to base. It is the
// canonical "reconfigure under fire" scenario — the spike lands faster
// than a drift window fills.
func FlashCrowd(durationMS, baseQPS, spikeQPS float64, dist BatchDistribution) Scenario {
	return Scenario{
		Name: "flash-crowd",
		Phases: []Phase{
			{DurationMS: durationMS * 0.35, StartQPS: baseQPS, EndQPS: baseQPS, Dist: dist},
			{DurationMS: durationMS * 0.05, StartQPS: baseQPS, EndQPS: spikeQPS, Dist: dist},
			{DurationMS: durationMS * 0.20, StartQPS: spikeQPS, EndQPS: spikeQPS, Dist: dist},
			{DurationMS: durationMS * 0.05, StartQPS: spikeQPS, EndQPS: baseQPS, Dist: dist},
			{DurationMS: durationMS * 0.35, StartQPS: baseQPS, EndQPS: baseQPS, Dist: dist},
		},
	}
}

// Diurnal is the day/night swing compressed into the run: cycles
// triangular sweeps between lowQPS and highQPS.
func Diurnal(durationMS, lowQPS, highQPS float64, cycles int, dist BatchDistribution) Scenario {
	if cycles < 1 {
		cycles = 1
	}
	half := durationMS / float64(2*cycles)
	s := Scenario{Name: "diurnal"}
	for i := 0; i < cycles; i++ {
		s.Phases = append(s.Phases,
			Phase{DurationMS: half, StartQPS: lowQPS, EndQPS: highQPS, Dist: dist},
			Phase{DurationMS: half, StartQPS: highQPS, EndQPS: lowQPS, Dist: dist},
		)
	}
	return s
}

// BatchMixInversion holds the arrival rate constant while the batch mix
// flips mid-run from before to after — the Fig. 12 load change as an
// adversarial step. Rate constancy isolates the mix drift: only the
// drift trigger (not an arrival-rate trigger) can answer it.
func BatchMixInversion(durationMS, qps float64, before, after BatchDistribution) Scenario {
	return Scenario{
		Name: "batch-mix-inversion",
		Phases: []Phase{
			{DurationMS: durationMS * 0.5, StartQPS: qps, EndQPS: qps, Dist: before},
			{DurationMS: durationMS * 0.5, StartQPS: qps, EndQPS: qps, Dist: after},
		},
	}
}

// HeavyTail is a constant-rate stream whose batch sizes follow a Pareto
// tail: most queries are small, but the occasional near-cap batch wedges
// whole instances behind one query.
func HeavyTail(durationMS, qps, scale, alpha float64) Scenario {
	return Scenario{
		Name: "heavy-tail",
		Phases: []Phase{
			{DurationMS: durationMS, StartQPS: qps, EndQPS: qps, Dist: Pareto{Scale: scale, Alpha: alpha}},
		},
	}
}

// ScenarioByName resolves the named preset with default shape parameters
// scaled to durationMS at the given base rate — the command-line surface
// for kairosctl tracefile and kairosctl soak.
func ScenarioByName(name string, durationMS, qps float64) (Scenario, error) {
	if !finitePositive(durationMS) || !finitePositive(qps) {
		return Scenario{}, fmt.Errorf("workload: scenario %q needs a finite positive duration and rate, got %v ms at %v qps", name, durationMS, qps)
	}
	switch name {
	case "flash-crowd":
		return FlashCrowd(durationMS, qps, 4*qps, DefaultTrace()), nil
	case "diurnal":
		return Diurnal(durationMS, qps/2, 2*qps, 2, DefaultTrace()), nil
	case "batch-mix-inversion":
		return BatchMixInversion(durationMS, qps, DefaultTrace(), DefaultGaussian()), nil
	case "heavy-tail":
		return HeavyTail(durationMS, qps, 20, 1.2), nil
	default:
		return Scenario{}, fmt.Errorf("workload: unknown scenario %q (have flash-crowd, diurnal, batch-mix-inversion, heavy-tail)", name)
	}
}
