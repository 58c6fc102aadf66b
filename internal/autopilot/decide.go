package autopilot

import (
	"fmt"
	"math"
	"strings"
	"time"

	"kairos/internal/cloud"
	"kairos/internal/core"
)

// This file is the decision core: a function of (now, readings, trigger
// memory). It reads no clock and reaches neither the controller nor the
// actuation driver — CI greps for both — which is what lets the simulation
// test drive it under a fake clock.

// ModelDecision reports one model's trigger evaluation within a control
// iteration — the window reading the decision was made from.
type ModelDecision struct {
	// Checked is false while the model's live window is too cold.
	Checked bool `json:"checked"`
	// Drift is the total-variation distance from the model's armed
	// reference.
	Drift float64 `json:"drift"`
	// TailMS is the model's windowed SLO-percentile latency (model ms).
	TailMS float64 `json:"tail_ms"`
	// ArrivalQPS is the model's smoothed observed arrival rate handed to
	// the planner's demand caps (0 while unknown).
	ArrivalQPS float64 `json:"arrival_qps"`
	// DriftTriggered and SLOTriggered report which triggers fired.
	DriftTriggered bool `json:"drift_triggered,omitempty"`
	SLOTriggered   bool `json:"slo_triggered,omitempty"`
}

// Decision reports one control-loop iteration over the whole fleet.
type Decision struct {
	// Checked is false while every model's live window is too cold to
	// evaluate the triggers.
	Checked bool
	// Models carries the per-model trigger evaluations.
	Models map[string]ModelDecision
	// DriftTriggered / SLOTriggered aggregate the per-model triggers;
	// ScaleInTriggered reports sustained fleet under-utilization.
	DriftTriggered   bool
	SLOTriggered     bool
	ScaleInTriggered bool
	// Utilization is the recent fleet-wide busy fraction in [0,1].
	Utilization float64
	// PlanBudget is the budget handed to the planner when one fired
	// (0 = the planner's full configured budget).
	PlanBudget float64
	// Held is true when a fired trigger was suppressed by the cooldown.
	Held bool
	// Replanned is true when a fresh plan was produced and actuated.
	Replanned bool
	// From and To are the fleet plans before and after; To is nil when no
	// replan happened.
	From, To core.FleetPlan
	// Reason summarizes the decision for logs and the admin endpoint.
	Reason string
}

// triggerNames renders the fired triggers for reasons, logs and the
// journal; empty when none fired.
func (dec *Decision) triggerNames() string {
	var parts []string
	for _, kind := range []struct {
		on   bool
		name string
	}{{dec.DriftTriggered, "drift"}, {dec.SLOTriggered, "slo"}, {dec.ScaleInTriggered, "scale-in"}} {
		if kind.on {
			parts = append(parts, kind.name)
		}
	}
	return strings.Join(parts, "+")
}

// kind classifies a finished iteration for the journal (see
// DecisionEvent.Kind).
func (dec *Decision) kind(err error) string {
	switch {
	case err != nil:
		return "error"
	case dec.Replanned:
		return "replan"
	case !dec.Checked:
		return "cold"
	case dec.Held:
		return "held"
	case dec.triggerNames() != "":
		return "plan-unchanged"
	}
	return "steady"
}

// modelTrigger is one model's trigger memory.
type modelTrigger struct {
	// sloMS is the model's latency objective, its QoS target.
	sloMS float64
	// detector holds the armed reference mix (nil until the model's first
	// warm window arms it); lastDrift is the last distance measured from it.
	detector  *DriftDetector
	lastDrift float64
}

// triggers is the decision core's configuration and its memory between
// ticks. Guarded by Autopilot.mu.
type triggers struct {
	opts   Options
	pool   cloud.Pool
	names  []string // sorted iteration order
	models map[string]*modelTrigger
	// lowTicks counts consecutive under-utilized ticks; lastChange is when
	// a trigger was last answered, the start of the cooldown.
	lowTicks   int
	lastChange time.Time
}

// decide evaluates every trigger over one tick's readings. fire reports
// that a trigger fired outside the cooldown and the caller must plan (under
// dec.PlanBudget) and reconcile; otherwise dec is final, Reason included.
func (t *triggers) decide(now time.Time, r readings, current core.FleetPlan) (dec Decision, fire bool, err error) {
	dec = Decision{Models: make(map[string]ModelDecision, len(t.names)), Utilization: r.util}
	for _, name := range t.names {
		m, mt := r.models[name], t.models[name]
		md := ModelDecision{ArrivalQPS: m.arrivalQPS}
		if m.warm {
			md.Checked = true
			md.TailMS = m.tailMS
			md.SLOTriggered = m.latN >= t.opts.MinObservations && m.tailMS > mt.sloMS
			if mt.detector == nil {
				// Lazy arming: the model's first warm window becomes its
				// reference.
				mt.detector, err = NewDriftDetector(m.window, DefaultDriftBins)
			} else if md.Drift, err = mt.detector.Distance(m.window); err == nil {
				mt.lastDrift = md.Drift
				md.DriftTriggered = md.Drift > t.opts.DriftThreshold
			}
			if err != nil {
				return Decision{}, false, err
			}
		}
		dec.Models[name] = md
		dec.DriftTriggered = dec.DriftTriggered || md.DriftTriggered
		dec.SLOTriggered = dec.SLOTriggered || md.SLOTriggered
		dec.Checked = dec.Checked || md.Checked
	}
	if !dec.Checked {
		dec.Reason = fmt.Sprintf("windows cold (< %d observations per model)", t.opts.MinObservations)
		return dec, false, nil
	}
	dec.ScaleInTriggered = t.scaleInTick(r.util, r.utilOK)
	dec.From = current

	switch since := now.Sub(t.lastChange); {
	case dec.triggerNames() == "":
		dec.Reason = fmt.Sprintf("steady (util %.2f, %s)", r.util, t.modelSummary(dec))
		return dec, false, nil
	case since < t.opts.Cooldown:
		dec.Held = true
		dec.Reason = fmt.Sprintf("%s in cooldown (%.1fs of %.1fs)", dec.triggerNames(), since.Seconds(), t.opts.Cooldown.Seconds())
		return dec, false, nil
	}
	// Scale-in alone shrinks the budget toward the observed demand, never
	// below what the pool's cheapest instance costs; any drift or SLO
	// breach replans at full budget (scale-out may always spend everything).
	if dec.ScaleInTriggered && !dec.DriftTriggered && !dec.SLOTriggered {
		cost := current.Cost(t.pool)
		cheapest := math.Inf(1)
		for _, ty := range t.pool {
			cheapest = min(cheapest, ty.PricePerHour)
		}
		shrunk := max(cost*r.util/(t.opts.ScaleInFloor+ScaleInHysteresis), cheapest)
		if shrunk >= cost-1e-9 {
			t.lowTicks = 0
			dec.ScaleInTriggered = false
			dec.Reason = fmt.Sprintf("scale-in armed but nothing to shed (util %.2f, cost $%.2f/hr)", r.util, cost)
			return dec, false, nil
		}
		dec.PlanBudget = shrunk
	}
	return dec, true, nil
}

// answered records that a fired trigger was answered at now, whether or not
// the plan changed: every warm model's detector is rebased on the window
// just planned from, the cooldown restarts, and the resized fleet starts a
// fresh under-utilization run.
func (t *triggers) answered(now time.Time, r readings, dec Decision) error {
	for name, md := range dec.Models {
		if !md.Checked {
			continue
		}
		det, err := NewDriftDetector(r.models[name].window, DefaultDriftBins)
		if err != nil {
			return err
		}
		t.models[name].detector = det
	}
	t.lastChange = now
	t.lowTicks = 0
	return nil
}

// modelSummary renders the per-model drift/tail readings for reasons.
func (t *triggers) modelSummary(dec Decision) string {
	var parts []string
	for _, name := range t.names {
		md := dec.Models[name]
		if !md.Checked {
			parts = append(parts, fmt.Sprintf("%s cold", name))
			continue
		}
		parts = append(parts, fmt.Sprintf("%s drift %.3f p%g %.1fms", name, md.Drift, SLOPercentile, md.TailMS))
	}
	return strings.Join(parts, "; ")
}

// scaleInTick advances the consecutive-under-utilization counter and
// reports whether the scale-in trigger is armed. Readings inside the
// hysteresis band above the floor neither arm nor reset.
func (t *triggers) scaleInTick(util float64, valid bool) bool {
	if t.opts.ScaleInFloor <= 0 || !valid {
		return false
	}
	switch {
	case util < t.opts.ScaleInFloor:
		t.lowTicks++
	case util > t.opts.ScaleInFloor+ScaleInHysteresis:
		t.lowTicks = 0
	}
	return t.lowTicks >= t.opts.ScaleInTicks
}
