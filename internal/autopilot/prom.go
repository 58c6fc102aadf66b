package autopilot

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"kairos/internal/obs"
)

// PromContentType is the Prometheus text exposition format version the
// admin /metrics endpoint serves.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// promWriter accumulates one exposition over a fixed snapshot.
type promWriter struct {
	w             *bufio.Writer
	err           error
	st            *Status
	names         []string // sorted model names
	plan, preempt obs.HistSnapshot
	reg           *obs.Registry
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

func (p *promWriter) sample(name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	p.printf("%s%s %g\n", name, labels, v)
}

func (p *promWriter) hist(name, labels string, snap obs.HistSnapshot) {
	if p.err == nil {
		snap.WriteProm(p.w, name, labels)
	}
}

func modelLabel(model string) string { return fmt.Sprintf("model=%q", escapeLabel(model)) }

// promFamily is one row of the exposition: a metric family and where its
// samples come from — one unlabelled value, one value per served model, or
// a writer of its own. door marks the families that exist only with a
// front door attached.
type promFamily struct {
	name, help, typ string
	value           func(st *Status) float64
	perModel        func(st *Status, model string) float64
	write           func(p *promWriter, name string)
	door            bool
}

// promFamilies is the whole exposition, in the order it is written:
// control-loop health, the fleet plan in force, fault/heal and preemption
// accounting, serving-path counters, per-model trigger readings, ingress
// admission state, the running fleet, and the flight recorder's per-stage
// and per-instance-type latency histograms (straight off the atomic
// counters; no locks taken on the serving path).
var promFamilies = []promFamily{
	{name: "kairos_up", help: "Control plane health (0 after a failed replan or actuation).", typ: "gauge", value: func(st *Status) float64 { return boolGauge(st.Healthy) }},
	{name: "kairos_uptime_seconds", help: "Wall-clock seconds since the autopilot started.", typ: "gauge", value: func(st *Status) float64 { return st.UptimeSeconds }},
	{name: "kairos_throughput_qps", help: "Recent fleet-wide completion rate in model-time QPS.", typ: "gauge", value: func(st *Status) float64 { return st.ThroughputQPS }},
	{name: "kairos_utilization_ratio", help: "Recent fleet-average busy fraction in [0,1].", typ: "gauge", value: func(st *Status) float64 { return st.Utilization }},
	{name: "kairos_plan_cost_dollars_per_hour", help: "Hourly cost of the fleet plan in force.", typ: "gauge", value: func(st *Status) float64 { return st.Plan.Cost }},
	{name: "kairos_replans_total", help: "Actuated fleet reconfigurations.", typ: "counter", value: func(st *Status) float64 { return float64(st.Plan.Replans) }},
	{name: "kairos_plan_duration_seconds", help: "Fleet replan compute time (the planner call, not actuation).", typ: "histogram", write: func(p *promWriter, name string) { p.hist(name, "", p.plan) }},
	{name: "kairos_instances_lost_total", help: "Instance deaths observed outside orderly removals.", typ: "counter", value: func(st *Status) float64 { return float64(st.Faults.InstancesLost) }},
	{name: "kairos_heals_total", help: "Completed fault-heal actuations.", typ: "counter", value: func(st *Status) float64 { return float64(st.Faults.Heals) }},
	{name: "kairos_fault_pending", help: "1 while an instance-death fault awaits its heal.", typ: "gauge", value: func(st *Status) float64 { return boolGauge(st.Faults.Pending) }},
	{name: "kairos_preemptions_total", help: "Spot revocation notices received.", typ: "counter", value: func(st *Status) float64 { return float64(st.Faults.Preemptions) }},
	{name: "kairos_preemptions_drained_total", help: "Preempted instances drained ahead of their revocation deadline.", typ: "counter", value: func(st *Status) float64 { return float64(st.Faults.PreemptionsDrained) }},
	{name: "kairos_preemptions_replanned_total", help: "Preemption notices answered by a completed replan.", typ: "counter", value: func(st *Status) float64 { return float64(st.Faults.PreemptionsReplanned) }},
	{name: "kairos_preemption_deadline_deaths_total", help: "Preempted instances that died mid-drain (eviction fallback).", typ: "counter", value: func(st *Status) float64 { return float64(st.Faults.PreemptionDeadlineDeaths) }},
	{name: "kairos_preemption_drain_seconds", help: "Notice-to-drained latency of answered preemptions.", typ: "histogram", write: func(p *promWriter, name string) { p.hist(name, "", p.preempt) }},
	{name: "kairos_queries_submitted_total", help: "Queries accepted by the controller.", typ: "counter", value: func(st *Status) float64 { return float64(st.Controller.Submitted) }},
	{name: "kairos_queries_completed_total", help: "Queries delivered without error.", typ: "counter", value: func(st *Status) float64 { return float64(st.Controller.Completed) }},
	{name: "kairos_queries_failed_total", help: "Queries delivered with an error.", typ: "counter", value: func(st *Status) float64 { return float64(st.Controller.Failed) }},
	{name: "kairos_queue_depth", help: "Central scheduler queue depth per model.", typ: "gauge", perModel: func(st *Status, m string) float64 { return float64(st.Controller.Models[m].Waiting) }},
	{name: "kairos_model_drift", help: "Last measured total-variation distance from the armed reference.", typ: "gauge", perModel: func(st *Status, m string) float64 { return st.Models[m].Drift }},
	{name: "kairos_model_tail_latency_seconds", help: "Windowed SLO-percentile latency per model (model time).", typ: "gauge", perModel: func(st *Status, m string) float64 { return st.Models[m].Window.TailMS / 1000 }},
	{name: "kairos_model_throughput_qps", help: "Recent per-model completion rate in model-time QPS.", typ: "gauge", perModel: func(st *Status, m string) float64 { return st.Models[m].Window.ThroughputQPS }},
	{name: "kairos_model_arrival_qps", help: "Smoothed observed per-model arrival rate in model-time QPS.", typ: "gauge", perModel: func(st *Status, m string) float64 { return st.Models[m].Window.ArrivalQPS }},
	{name: "kairos_ingress_queue_depth", help: "Admitted-but-unfinished ingress queries per model.", typ: "gauge", door: true, perModel: func(st *Status, m string) float64 { return float64(st.Controller.Ingress[m].Queue) }},
	{name: "kairos_ingress_submitted_total", help: "Queries the front-end admitted into the controller.", typ: "counter", door: true, perModel: func(st *Status, m string) float64 { return float64(st.Controller.Ingress[m].Submitted) }},
	{name: "kairos_ingress_rejected_total", help: "Queries pushed back by the bounded admission queue.", typ: "counter", door: true, perModel: func(st *Status, m string) float64 { return float64(st.Controller.Ingress[m].Rejected) }},
	{name: "kairos_fleet_instances", help: "Connected, non-draining instances per model per type.", typ: "gauge",
		write: func(p *promWriter, name string) {
			for _, m := range p.names {
				types := make([]string, 0, len(p.st.Fleet[m]))
				for t := range p.st.Fleet[m] {
					types = append(types, t)
				}
				sort.Strings(types)
				for _, t := range types {
					p.sample(name, fmt.Sprintf("%s,type=%q", modelLabel(m), escapeLabel(t)), float64(p.st.Fleet[m][t]))
				}
			}
		}},
	{name: "kairos_stage_latency_seconds", help: "Per-stage wall-clock latency of served queries.", typ: "histogram",
		write: func(p *promWriter, name string) {
			for _, m := range p.reg.Models() {
				for _, stage := range obs.Stages() {
					p.hist(name, fmt.Sprintf("%s,stage=%q", modelLabel(m), escapeLabel(stage.String())), p.reg.Model(m).StageSnapshot(stage))
				}
			}
		}},
	{name: "kairos_instance_serve_seconds", help: "Serve-time distribution per model per instance type.", typ: "histogram",
		write: func(p *promWriter, name string) {
			for _, m := range p.reg.Models() {
				for _, se := range p.reg.Model(m).ServeByType() {
					p.hist(name, fmt.Sprintf("%s,instance_type=%q", modelLabel(m), escapeLabel(se.Type)), se.Snap)
				}
			}
		}},
}

// WritePrometheus writes the whole control plane as one Prometheus text
// exposition (format 0.0.4). Families and label sets come out in
// deterministic order so scrapes diff cleanly.
func (a *Autopilot) WritePrometheus(w io.Writer) error {
	st := a.Status()
	return writePrometheus(w, &st, a.names, a.planHist.Snapshot(), a.preemptHist.Snapshot(), a.Controller().Obs())
}

// writePrometheus walks promFamilies over one snapshot.
func writePrometheus(w io.Writer, st *Status, names []string, plan, preempt obs.HistSnapshot, reg *obs.Registry) error {
	p := &promWriter{w: bufio.NewWriter(w), st: st, names: names, plan: plan, preempt: preempt, reg: reg}
	for _, f := range promFamilies {
		if f.door && len(st.Controller.Ingress) == 0 {
			continue
		}
		p.printf("# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		switch {
		case f.value != nil:
			p.sample(f.name, "", f.value(st))
		case f.perModel != nil:
			for _, m := range p.names {
				p.sample(f.name, modelLabel(m), f.perModel(st, m))
			}
		default:
			f.write(p, f.name)
		}
	}
	if p.err != nil {
		return p.err
	}
	return p.w.Flush()
}
