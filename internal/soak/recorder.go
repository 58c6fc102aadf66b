package soak

import (
	"sort"
	"sync"
	"time"

	"kairos/internal/obs"
)

// FaultEvent is one injected fault as it happened, with the measured
// recovery. Times are model milliseconds (wall clock divided by the
// run's time scale), comparable across time-compressed runs.
type FaultEvent struct {
	// Kind names the fault (see FaultKind).
	Kind string `json:"kind"`
	// Target is the controller-facing address the fault hit.
	Target string `json:"target"`
	// Model is the model the target was serving.
	Model string `json:"model"`
	// AtMS is the injection time since replay start.
	AtMS float64 `json:"at_ms"`
	// RecoveryMS is how long the fleet took to re-converge (relaunch +
	// re-actuate) after a capacity-losing fault; -1 when the fault heals
	// by lifting (delay, stall) or recovery never completed.
	RecoveryMS float64 `json:"recovery_ms"`
	// Err records an injection that itself failed (e.g. capability
	// missing); empty on success.
	Err string `json:"err,omitempty"`
}

// TrajectoryPoint is one time bucket of the tail-latency trajectory.
type TrajectoryPoint struct {
	// TMS is the bucket's start time in model milliseconds.
	TMS float64 `json:"t_ms"`
	// Queries counts completions recorded in the bucket.
	Queries int `json:"queries"`
	// P50MS, P99MS, and P999MS are the bucket's latency percentiles in
	// model milliseconds, within obs.QuantileRelErr of the exact values.
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
}

// Report is one scenario's soak outcome — the unit of BENCH_soak.json.
type Report struct {
	// Scenario and Seed reproduce the run bit for bit.
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	// DurationMS is the scenario length in model milliseconds; TimeScale
	// is the wall-clock compression it replayed under.
	DurationMS float64 `json:"duration_ms"`
	TimeScale  float64 `json:"time_scale"`
	// Submitted counts queries the replay offered; Admitted the ones the
	// ingress accepted; Rejected the backpressured remainder. Failed
	// counts admitted queries that did not complete — the soak invariant
	// demands it stay zero.
	Submitted int64 `json:"submitted"`
	Admitted  int64 `json:"admitted"`
	Rejected  int64 `json:"rejected"`
	Failed    int64 `json:"failed"`
	// PlanCost is the fleet plan's $/hr at quiesce. With a spot market
	// (-spot-discount) this is the discounted bill, so a run at the same
	// budget over the plain on-demand pool makes the saving directly
	// comparable.
	PlanCost float64 `json:"plan_cost_per_hour"`
	// CostPer1KQueries is dollars per thousand admitted queries (plan
	// cost x model-time duration / admitted) — the $/query economics
	// injected preemptions must not break.
	CostPer1KQueries float64 `json:"cost_per_1k_queries"`
	// Faults lists every injected fault with its measured recovery.
	Faults []FaultEvent `json:"faults"`
	// Trajectory is the tail-latency time series across the run.
	Trajectory []TrajectoryPoint `json:"trajectory"`
	// StageLatency breaks the run's serving latency down by lifecycle
	// stage (model → stage → quantiles), read off the controller's
	// flight-recorder histograms at quiesce. Times are model
	// milliseconds, comparable across time-compressed runs.
	StageLatency map[string]map[string]StageQuantiles `json:"stage_latency,omitempty"`
	// Violations lists every invariant violation; empty means the run
	// upheld the zero-dropped-queries ratchet.
	Violations []string `json:"violations"`
}

// StageQuantiles summarizes one lifecycle stage's latency histogram in
// model milliseconds.
type StageQuantiles struct {
	// Count is how many samples the stage recorded.
	Count uint64 `json:"count"`
	// P50MS/P99MS/P999MS are log-linear bucket quantile estimates (within
	// obs.QuantileRelErr, 6.25 %, of the exact values).
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
}

// Passed reports whether the run upheld every invariant.
func (r *Report) Passed() bool { return len(r.Violations) == 0 }

// Bench is the BENCH_soak.json document: one soak campaign.
type Bench struct {
	// Seed is the campaign's base seed (each scenario derives its own).
	Seed int64 `json:"seed"`
	// TimeScale is the wall-clock compression the campaign ran under.
	TimeScale float64 `json:"time_scale"`
	// Scenarios holds one report per scenario run.
	Scenarios []Report `json:"scenarios"`
}

// Passed reports whether every scenario upheld every invariant.
func (b *Bench) Passed() bool {
	for i := range b.Scenarios {
		if !b.Scenarios[i].Passed() {
			return false
		}
	}
	return true
}

// recorder accumulates per-query completions into fixed time buckets, one
// obs.Histogram each (model time, one model ms recorded as one ms), and
// renders the percentile trajectory. Concurrency-safe: the replay's
// per-query goroutines feed it directly.
type recorder struct {
	bucketMS float64

	mu      sync.Mutex
	buckets map[int]*obs.Histogram // time-bucket index -> completion latencies
	faults  []FaultEvent
}

func newRecorder(bucketMS float64) *recorder {
	if bucketMS <= 0 {
		bucketMS = 1000
	}
	return &recorder{bucketMS: bucketMS, buckets: make(map[int]*obs.Histogram)}
}

// observe records one completed query: submitted atMS into the run,
// served in latencyMS (both model milliseconds).
func (r *recorder) observe(atMS, latencyMS float64) {
	idx := int(atMS / r.bucketMS)
	if idx < 0 {
		idx = 0
	}
	r.mu.Lock()
	h := r.buckets[idx]
	if h == nil {
		h = new(obs.Histogram)
		r.buckets[idx] = h
	}
	r.mu.Unlock()
	h.Record(time.Duration(latencyMS * float64(time.Millisecond)))
}

// fault records one injected fault.
func (r *recorder) fault(ev FaultEvent) {
	r.mu.Lock()
	r.faults = append(r.faults, ev)
	r.mu.Unlock()
}

// setRecovery stamps the recovery time onto the most recent fault at
// target that has none yet.
func (r *recorder) setRecovery(target string, recoveryMS float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.faults) - 1; i >= 0; i-- {
		if r.faults[i].Target == target && r.faults[i].RecoveryMS == -1 && r.faults[i].Err == "" {
			r.faults[i].RecoveryMS = recoveryMS
			return
		}
	}
}

// trajectory renders the bucketed percentile series in time order.
func (r *recorder) trajectory() []TrajectoryPoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	idxs := make([]int, 0, len(r.buckets))
	for idx := range r.buckets {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	out := make([]TrajectoryPoint, 0, len(idxs))
	for _, idx := range idxs {
		snap := r.buckets[idx].Snapshot()
		ms := func(p float64) float64 { return float64(snap.Quantile(p)) / float64(time.Millisecond) }
		out = append(out, TrajectoryPoint{
			TMS:     float64(idx) * r.bucketMS,
			Queries: int(snap.Count),
			P50MS:   ms(0.5),
			P99MS:   ms(0.99),
			P999MS:  ms(0.999),
		})
	}
	return out
}

// faultEvents returns the recorded faults in injection order.
func (r *recorder) faultEvents() []FaultEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FaultEvent, len(r.faults))
	copy(out, r.faults)
	return out
}
