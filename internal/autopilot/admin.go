package autopilot

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"kairos/internal/obs"
	"kairos/internal/server"
)

// WindowStatus summarizes one model's live rolling window.
type WindowStatus struct {
	// Observations is the number of batch sizes currently held.
	Observations int `json:"observations"`
	// MeanBatch is the average batch size in the window.
	MeanBatch float64 `json:"mean_batch"`
	// LatencySamples is the number of latencies currently held.
	LatencySamples int `json:"latency_samples"`
	// P50MS/P95MS/P99MS are windowed latency percentiles in model ms
	// (0 while empty), within obs.QuantileRelErr of the exact values.
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
	// TailMS is the windowed SLO-percentile latency: the reading the SLO
	// trigger compares with the model's objective.
	TailMS float64 `json:"tail_ms"`
	// ThroughputQPS is the model's recent completion rate in model-time
	// QPS.
	ThroughputQPS float64 `json:"throughput_qps"`
	// ArrivalQPS is the model's smoothed observed arrival rate in
	// model-time QPS — the demand signal behind the planner's caps.
	ArrivalQPS float64 `json:"arrival_qps"`
}

// ModelPlanStatus is one model's slice of the fleet plan.
type ModelPlanStatus struct {
	// Config is the per-type instance count vector over the pool.
	Config []int `json:"config"`
	// Counts keys the same allocation by instance-type name.
	Counts map[string]int `json:"counts"`
	// Cost is the allocation's $/hr over the pool.
	Cost float64 `json:"cost"`
}

// PlanStatus is the /plan view: the fleet plan in force and the replan
// history heads.
type PlanStatus struct {
	// Models maps each served model to its allocation.
	Models map[string]ModelPlanStatus `json:"models"`
	// Cost is the whole fleet's $/hr over the pool.
	Cost float64 `json:"cost"`
	// Replans counts actuated reconfigurations.
	Replans int `json:"replans"`
	// LastChange is when the plan last changed (or was last confirmed).
	LastChange time.Time `json:"last_change,omitempty"`
	// LastReason explains the latest replan or confirmation.
	LastReason string `json:"last_reason,omitempty"`
}

// ModelStatus is one model's control-plane section of /metrics.
type ModelStatus struct {
	// Drift is the model's last measured total-variation distance.
	Drift float64 `json:"drift"`
	// SLOLatencyMS is the model's latency objective.
	SLOLatencyMS float64 `json:"slo_latency_ms"`
	// Plan is the model's slice of the fleet plan.
	Plan ModelPlanStatus `json:"plan"`
	// Window is the model's live rolling-window summary.
	Window WindowStatus `json:"window"`
	// IngressQueue is the model's current admitted-but-unfinished ingress
	// admission-queue depth (0 when no front-end is attached) — the
	// backlog an operator watches while a fault drains.
	IngressQueue int64 `json:"ingress_queue"`
}

// FaultStatus reports instance-death faults and the heals answering them
// — the recovery view soak runs and operators watch from outside.
type FaultStatus struct {
	// InstancesLost counts evictions (deaths outside orderly removals).
	InstancesLost int64 `json:"instances_lost"`
	// Heals counts completed fault-heal actuations.
	Heals int64 `json:"heals"`
	// Pending is true while a fault awaits its heal.
	Pending bool `json:"pending"`
	// LastFault and LastRecovery timestamp the most recent death and the
	// most recent completed heal (zero when none yet).
	LastFault    time.Time `json:"last_fault,omitempty"`
	LastRecovery time.Time `json:"last_recovery,omitempty"`
	// LastDetail describes the most recent death (model/type, address,
	// cause).
	LastDetail string `json:"last_detail,omitempty"`

	// Preemptions counts spot revocation notices received;
	// PreemptionsDrained of those finished their drain ahead of the
	// deadline, PreemptionsReplanned also reconciled the fleet around the
	// hole, and PreemptionDeadlineDeaths died mid-drain (the eviction
	// fallback answered those).
	Preemptions              int64 `json:"preemptions,omitempty"`
	PreemptionsDrained       int64 `json:"preemptions_drained,omitempty"`
	PreemptionsReplanned     int64 `json:"preemptions_replanned,omitempty"`
	PreemptionDeadlineDeaths int64 `json:"preemption_deadline_deaths,omitempty"`
	// LastPreempt and LastPreemptDetail describe the most recent notice.
	LastPreempt       time.Time `json:"last_preempt,omitempty"`
	LastPreemptDetail string    `json:"last_preempt_detail,omitempty"`
}

// ScaleInStatus reports the under-utilization trigger's configuration and
// progress.
type ScaleInStatus struct {
	// Enabled is false when no floor is configured.
	Enabled bool `json:"enabled"`
	// Floor and Hysteresis are the trigger's utilization bounds.
	Floor      float64 `json:"floor,omitempty"`
	Hysteresis float64 `json:"hysteresis,omitempty"`
	// TicksBelow is the current consecutive-under-utilized tick count;
	// TicksNeeded arms the trigger.
	TicksBelow  int `json:"ticks_below"`
	TicksNeeded int `json:"ticks_needed,omitempty"`
}

// IngressStatus reports the external front-end endpoints; the per-model
// ingress counters ride inside Controller.Ingress.
type IngressStatus struct {
	// Enabled is false when the autopilot serves no external traffic.
	Enabled bool `json:"enabled"`
	// HTTPAddr / TCPAddr are the bound endpoint addresses ("" disabled).
	HTTPAddr string `json:"http_addr,omitempty"`
	TCPAddr  string `json:"tcp_addr,omitempty"`
}

// Status is the /metrics view: the whole control plane at a glance.
type Status struct {
	// Healthy is false after a failed replan or actuation.
	Healthy bool `json:"healthy"`
	// UptimeSeconds is wall-clock time since New.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// DriftThreshold is the trigger level shared by every model.
	DriftThreshold float64 `json:"drift_threshold"`
	// SLOPercentile is the tail percentile checked per model.
	SLOPercentile float64 `json:"slo_percentile"`
	// ThroughputQPS is the recent fleet-wide completion rate in model-time
	// QPS; Utilization is the recent fleet-average busy fraction in [0,1].
	ThroughputQPS float64 `json:"throughput_qps"`
	Utilization   float64 `json:"utilization"`
	// ScaleIn reports the under-utilization trigger.
	ScaleIn ScaleInStatus `json:"scale_in"`
	// Faults reports instance deaths and fault heals.
	Faults FaultStatus `json:"faults"`
	// LastError is the latest replan/actuation failure, empty when none.
	LastError string `json:"last_error,omitempty"`
	// Plan is the fleet plan in force.
	Plan PlanStatus `json:"plan"`
	// Models carries the per-model control sections.
	Models map[string]ModelStatus `json:"models"`
	// Fleet counts connected, non-draining instances per model per type —
	// the controller's view of what the provider is running.
	Fleet map[string]map[string]int `json:"fleet"`
	// Ingress reports the external front-end endpoints.
	Ingress IngressStatus `json:"ingress"`
	// Controller is the serving-path accounting snapshot (including the
	// per-model ingress counters when a front-end is attached).
	Controller server.Stats `json:"controller"`
}

// modelPlanStatus renders one model's allocation.
func (a *Autopilot) modelPlanStatus(cfg []int) ModelPlanStatus {
	counts := make(map[string]int, len(a.wiring.Pool))
	cost := 0.0
	for i, t := range a.wiring.Pool {
		if i < len(cfg) && cfg[i] > 0 {
			counts[t.Name] = cfg[i]
			cost += float64(cfg[i]) * t.PricePerHour
		}
	}
	return ModelPlanStatus{Config: cfg, Counts: counts, Cost: cost}
}

// planStatus assembles the /plan view; callers must not hold a.mu.
func (a *Autopilot) planStatus() PlanStatus {
	a.mu.Lock()
	plan := a.current.Clone()
	out := PlanStatus{
		Models:     make(map[string]ModelPlanStatus, len(plan)),
		Replans:    a.replans,
		LastChange: a.trig.lastChange,
		LastReason: a.lastReason,
	}
	a.mu.Unlock()
	for _, name := range a.names {
		cfg := plan[name]
		if cfg == nil {
			cfg = make([]int, len(a.wiring.Pool))
		}
		mp := a.modelPlanStatus(cfg)
		out.Models[name] = mp
		out.Cost += mp.Cost
	}
	return out
}

// fleetCounts derives the running-fleet view from a controller snapshot:
// connected, non-draining instances per model per type.
func fleetCounts(cs server.Stats) map[string]map[string]int {
	out := make(map[string]map[string]int)
	for _, in := range cs.Instances {
		if in.Draining {
			continue
		}
		if out[in.Model] == nil {
			out[in.Model] = make(map[string]int)
		}
		out[in.Model][in.TypeName]++
	}
	return out
}

// Faults snapshots the fault and preemption bookkeeping alone, for callers
// that poll it and must not pay for a full Status.
func (a *Autopilot) Faults() FaultStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.faults
}

// health reports the recorded control error (empty when healthy) and the
// seconds since New.
func (a *Autopilot) health() (lastErr string, uptime float64) {
	now := a.now()
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastErr, now.Sub(a.started).Seconds()
}

// Status snapshots the control plane.
func (a *Autopilot) Status() Status {
	ctrlStats := a.fleet.Stats()
	lastErr, uptime := a.health()
	out := Status{
		Healthy:        lastErr == "",
		UptimeSeconds:  uptime,
		DriftThreshold: a.opts.DriftThreshold,
		SLOPercentile:  SLOPercentile,
		ScaleIn: ScaleInStatus{
			Enabled:     a.opts.ScaleInFloor > 0,
			Floor:       a.opts.ScaleInFloor,
			TicksNeeded: a.opts.ScaleInTicks,
		},
		LastError:  lastErr,
		Plan:       a.planStatus(),
		Models:     make(map[string]ModelStatus, len(a.names)),
		Fleet:      fleetCounts(ctrlStats),
		Controller: ctrlStats,
	}
	if out.ScaleIn.Enabled {
		out.ScaleIn.Hysteresis = ScaleInHysteresis
	}
	if a.ingress != nil {
		out.Ingress = IngressStatus{Enabled: true, HTTPAddr: a.ingress.HTTPAddr(), TCPAddr: a.ingress.TCPAddr()}
	}
	for _, name := range a.names {
		st := a.states[name]
		out.Models[name] = ModelStatus{
			SLOLatencyMS: a.trig.models[name].sloMS,
			Plan:         out.Plan.Models[name],
			Window:       WindowStatus{Observations: st.monitor.Count(), MeanBatch: st.monitor.MeanBatch()},
			IngressQueue: ctrlStats.Ingress[name].Queue,
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, name := range a.names {
		st, ms := a.states[name], out.Models[name]
		ms.Drift = a.trig.models[name].lastDrift
		w := &ms.Window
		w.LatencySamples, w.ThroughputQPS, w.ArrivalQPS = st.latency.Len(), st.recentQPS, st.arrivalQPS
		w.P50MS, w.P95MS, w.P99MS, w.TailMS = st.latencyMS(50), st.latencyMS(95), st.latencyMS(99), st.latencyMS(SLOPercentile)
		out.Models[name] = ms
	}
	out.ThroughputQPS = a.rates.qps
	if a.rates.valid {
		out.Utilization = a.rates.utilization
	}
	out.ScaleIn.TicksBelow = a.trig.lowTicks
	out.Faults = a.faults
	return out
}

// AdminHandler returns the admin endpoint's routes:
//
//	/healthz   liveness (JSON)
//	/metrics   Prometheus text exposition (format 0.0.4)
//	/statusz   full Status (JSON; the view /metrics served before the
//	           Prometheus migration)
//	/plan      the fleet plan in force (JSON)
//	/tracez    flight-recorder trace rings (?model=NAME&n=COUNT)
//	/decisionz the bounded control-decision journal (JSON)
func (a *Autopilot) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(v)
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		lastErr, uptime := a.health()
		if lastErr != "" {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		writeJSON(w, map[string]any{"ok": lastErr == "", "error": lastErr, "uptime": uptime})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", PromContentType)
		a.WritePrometheus(w)
	})
	mux.HandleFunc("/tracez", func(w http.ResponseWriter, r *http.Request) {
		n := 100
		if s := r.URL.Query().Get("n"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 1 {
				w.WriteHeader(http.StatusBadRequest)
				writeJSON(w, map[string]string{"error": "tracez: n must be a positive integer"})
				return
			}
			n = v
		}
		reg := a.Controller().Obs()
		names := reg.Models()
		if m := r.URL.Query().Get("model"); m != "" {
			if reg.Model(m) == nil {
				w.WriteHeader(http.StatusNotFound)
				writeJSON(w, map[string]string{"error": fmt.Sprintf("tracez: unknown model %q", m)})
				return
			}
			names = []string{m}
		}
		every, seed := reg.Sampling()
		out := TracezStatus{
			SampleEvery: every,
			SampleSeed:  seed,
			Models:      make(map[string][]obs.TraceRecord, len(names)),
		}
		for _, name := range names {
			out.Models[name] = reg.Model(name).Traces(n)
		}
		writeJSON(w, out)
	})
	for path, view := range map[string]func() any{
		"/statusz":   func() any { return a.Status() },
		"/plan":      func() any { return a.planStatus() },
		"/decisionz": func() any { return a.Decisions() },
	} {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) { writeJSON(w, view()) })
	}
	return mux
}

// TracezStatus is the /tracez view: each model's retained trace ring
// (newest first) plus the sampling configuration that produced it.
type TracezStatus struct {
	// SampleEvery is the trace sampling rate (~1/every; 0 disabled).
	SampleEvery uint64 `json:"sample_every"`
	// SampleSeed keys the deterministic sampler.
	SampleSeed uint64 `json:"sample_seed"`
	// Models maps each model to its retained traces, newest first.
	Models map[string][]obs.TraceRecord `json:"models"`
}

// StartAdmin binds the admin endpoint on addr ("127.0.0.1:0" for an
// ephemeral port) and serves it in the background until Close. It returns
// the bound address.
func (a *Autopilot) StartAdmin(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{
		Handler: a.AdminHandler(),
		// Slowloris guard: a client trickling header bytes must not pin an
		// admin connection (and its goroutine) forever.
		ReadHeaderTimeout: 10 * time.Second,
	}
	a.mu.Lock()
	switch {
	case a.stopped():
		err = errors.New("autopilot: closed")
	case a.admin != nil:
		err = errors.New("autopilot: admin endpoint already running")
	default:
		a.admin = srv
	}
	a.mu.Unlock()
	if err != nil {
		ln.Close()
		return "", err
	}
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}
