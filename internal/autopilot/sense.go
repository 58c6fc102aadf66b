package autopilot

import (
	"time"

	"kairos/internal/obs"
	"kairos/internal/server"
	"kairos/internal/workload"
)

// fleet is what the autopilot calls on the controller it manages: the
// accounting sense reads, the membership operations reconcile and the
// preemption drain perform, and Close. *server.Controller satisfies it as
// is; the simulation test substitutes an in-memory fleet.
type fleet interface {
	Stats() server.Stats
	ModelInstanceCounts(model string) map[string]int
	AddInstance(addr string) (string, error)
	RemoveInstance(model, typeName string) (string, error)
	RemoveInstanceAddr(addr string) (model, typeName string, died bool, err error)
	Hold(model string) (release func())
	Close()
}

// modelState is one served model's live windows and rate estimates.
// monitor is internally synchronized; everything else is guarded by
// Autopilot.mu.
type modelState struct {
	monitor *workload.Monitor
	latency *obs.Window
	// lastCompleted, lastSubmitted, and lastRejected back the per-model
	// throughput and arrival-rate estimates.
	lastCompleted int64
	lastSubmitted int64
	lastRejected  int64
	recentQPS     float64
	// arrivalQPS is the smoothed observed arrival rate in model-time QPS;
	// it feeds the planner's demand caps.
	arrivalQPS float64
}

// rates is the fleet-wide half of the rate estimator: the previous tick's
// controller counters and the estimates derived from the delta since.
type rates struct {
	at          time.Time // zero: the next tick only re-baselines
	completed   int64
	busyMS      float64
	qps         float64
	utilization float64
	valid       bool
}

// modelReading is what one tick senses of a model.
type modelReading struct {
	// window is the live batch window; warm reports that it holds
	// MinObservations, the gate on the model's triggers.
	window []int
	warm   bool
	// sample is what the model plans from (see planSample); empty when the
	// model is invisible to the planner.
	sample []int
	// tailMS is the SLO-percentile latency over the latN samples of the
	// latency window (0 while empty).
	tailMS float64
	latN   int
	// arrivalQPS is the smoothed demand estimate (0 while unknown).
	arrivalQPS float64
}

// readings is one tick's view of the world, the decision core's only
// input besides its own memory.
type readings struct {
	models map[string]modelReading
	// samples and arrivals are the planner's arguments: every model with a
	// planning sample, and every measured arrival rate (a model without one
	// is absent — unknown demand, uncapped).
	samples  map[string][]int
	arrivals map[string]float64
	// util is the recent fleet-wide busy fraction, meaningful when utilOK.
	util   float64
	utilOK bool
}

// observe feeds the owning model's live windows from one delivered
// completion.
func (a *Autopilot) observe(model string, batch int, res server.QueryResult) {
	st, ok := a.states[model]
	if !ok || res.Err != nil {
		return
	}
	st.monitor.Observe(batch)
	a.mu.Lock()
	st.latency.Observe(time.Duration(res.LatencyMS * float64(time.Millisecond)))
	a.mu.Unlock()
}

// latencyMS is the latency window's p-th percentile (0 < p ≤ 100) in model
// ms, 0 while the window is empty: the one quantile walk over the window's
// bucket counts (internal/obs), cheap enough to run under Autopilot.mu,
// which callers hold.
func (st *modelState) latencyMS(p float64) float64 {
	return millis(st.latency.Quantile(p / 100))
}

// planSample is the one rule for which sample a model plans from: its live
// window once warm, else the reference its current fleet was sized for,
// else whatever the window holds (possibly nothing).
func (a *Autopilot) planSample(name string, window []int) []int {
	if ref := a.wiring.References[name]; len(window) < a.opts.MinObservations && ref != nil {
		return ref
	}
	return window
}

// read senses one model.
func (a *Autopilot) read(name string) modelReading {
	st := a.states[name]
	window := st.monitor.Snapshot()
	m := modelReading{window: window, warm: len(window) >= a.opts.MinObservations, sample: a.planSample(name, window)}
	a.mu.Lock()
	m.tailMS, m.latN, m.arrivalQPS = st.latencyMS(SLOPercentile), st.latency.Len(), st.arrivalQPS
	a.mu.Unlock()
	return m
}

// sense takes one tick's readings: it advances the rate estimator, then
// reads every model.
func (a *Autopilot) sense(now time.Time) readings {
	r := readings{models: map[string]modelReading{}, samples: map[string][]int{}, arrivals: map[string]float64{}}
	r.util, r.utilOK = a.updateRates(now)
	for _, name := range a.names {
		m := a.read(name)
		r.models[name] = m
		if len(m.sample) > 0 {
			r.samples[name] = m.sample
		}
		if m.arrivalQPS > 0 {
			r.arrivals[name] = m.arrivalQPS
		}
	}
	return r
}

// resetLatencyWindows restarts every model's SLO view.
func (a *Autopilot) resetLatencyWindows() {
	a.mu.Lock()
	for _, st := range a.states {
		st.latency.Reset()
	}
	a.mu.Unlock()
}

// updateRates refreshes the recent throughput and utilization estimates
// from controller-stats deltas since the previous tick. The returned
// utilization is only meaningful when ok is true (a previous tick exists).
func (a *Autopilot) updateRates(now time.Time) (float64, bool) {
	stats := a.fleet.Stats()
	busy := 0.0
	for _, in := range stats.Instances {
		busy += in.BusyMS
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	rt := &a.rates
	modelMS := float64(now.Sub(rt.at)) / float64(time.Millisecond) / a.wiring.TimeScale
	measure := !rt.at.IsZero() && modelMS > 0
	rt.valid = false
	if measure {
		rt.qps = float64(stats.Completed-rt.completed) / modelMS * 1000
		if n := len(stats.Instances); n > 0 {
			rt.utilization = max(0, (busy-rt.busyMS)/(modelMS*float64(n)))
			rt.valid = true
		}
	}
	for _, name := range a.names {
		ms, found := stats.Models[name]
		if !found {
			continue
		}
		st := a.states[name]
		// Arrivals (submissions) measure demand even when the fleet cannot
		// keep up. Backpressure-rejected ingress queries never reach Submit
		// but are demand too — an overloaded front-end must not read as
		// "demand equals served throughput" or the demand caps would pin
		// the fleet at its own saturation point.
		demand := ms.Submitted - st.lastSubmitted
		if is, door := stats.Ingress[name]; door {
			demand += is.Rejected - st.lastRejected
			st.lastRejected = is.Rejected
		}
		if measure {
			st.recentQPS = float64(ms.Completed-st.lastCompleted) / modelMS * 1000
			// A light EWMA damps interval noise before the planner reads it.
			if inst := float64(demand) / modelMS * 1000; st.arrivalQPS == 0 {
				st.arrivalQPS = inst
			} else {
				st.arrivalQPS = 0.5*st.arrivalQPS + 0.5*inst
			}
		}
		st.lastCompleted, st.lastSubmitted = ms.Completed, ms.Submitted
	}
	rt.at, rt.completed, rt.busyMS = now, stats.Completed, busy
	return rt.utilization, rt.valid
}
