package kairos

import (
	"io"

	"kairos/internal/workload"
)

// Trace is a reproducible query trace: arrivals plus batch sizes, with CSV
// and JSON round-tripping (see kairosctl tracefile).
type Trace = workload.Trace

// SynthesizeTrace builds a reproducible query trace (arrivals + batch
// sizes) for replay and tooling; see kairosctl tracefile.
func SynthesizeTrace(seed int64, dist BatchDistribution, ratePerSec float64, n int) Trace {
	return workload.Synthesize(seed, dist, ratePerSec, n)
}

// ReadTraceCSV parses a trace from its CSV form.
func ReadTraceCSV(r io.Reader) (Trace, error) { return workload.ReadCSV(r) }

// ReadTraceJSON parses a trace from its JSON form.
func ReadTraceJSON(r io.Reader) (Trace, error) { return workload.ReadJSON(r) }

// Scenario is a named adversarial workload shape — a sequence of
// rate/mix phases rendered into a deterministic arrival stream; see
// kairosctl tracefile -scenario and the soak harness.
type Scenario = workload.Scenario

// ScenarioByName resolves a scenario preset (flash-crowd, diurnal,
// batch-mix-inversion, heavy-tail) with default shape parameters scaled
// to durationMS at base rate qps.
func ScenarioByName(name string, durationMS, qps float64) (Scenario, error) {
	return workload.ScenarioByName(name, durationMS, qps)
}

// Gaussian returns a truncated Gaussian batch-size distribution (the
// paper's alternative workload shape, Sec. 7).
func Gaussian(mean, std float64) BatchDistribution {
	return workload.Gaussian{Mean: mean, Std: std}
}

// Uniform returns a uniform batch-size distribution over [min, max].
func Uniform(min, max int) BatchDistribution {
	return workload.Uniform{Min: min, Max: max}
}

// DefaultGaussian returns the paper's default Gaussian batch mix.
func DefaultGaussian() BatchDistribution { return workload.DefaultGaussian() }
