package autopilot

import (
	"slices"
	"sync"
	"time"

	"kairos/internal/core"
)

// defaultJournalSize bounds the in-memory decision journal. At the
// default one-second control interval it holds the last ~8 minutes of
// decisions, and replans/heals (the entries an incident review needs)
// are far rarer than steady ticks.
const defaultJournalSize = 512

// DecisionEvent is one entry in the autopilot's bounded decision
// journal: a trigger→replan→actuate cycle (or the decision not to run
// one), with enough context to reconstruct why the control plane moved.
// The journal is the /decisionz view and rides next to BENCH_soak.json
// in soak runs.
type DecisionEvent struct {
	// Seq is the entry's monotone sequence number (1-based); gaps mean
	// the bounded journal rotated older entries out.
	Seq int64 `json:"seq"`
	// At is when the decision completed.
	At time.Time `json:"at"`
	// Kind classifies the cycle: "replan" (a fresh plan was actuated),
	// "plan-unchanged" (a trigger fired but planning reproduced the
	// current fleet), "held" (a trigger fired inside the cooldown),
	// "steady" (no trigger), "cold" (windows too cold to evaluate),
	// "heal" (a fault-recovery actuation), "preempt" (a spot revocation
	// notice was answered: drain-ahead-of-death plus the replan filling
	// the hole; see PreemptDrainMS/PreemptReplanMS), or "error" (the
	// cycle failed; see Err).
	Kind string `json:"kind"`
	// Triggers names the fired triggers ("drift", "slo", "scale-in",
	// joined with +); empty when none fired.
	Triggers string `json:"triggers,omitempty"`
	// Reason is the human-readable decision summary (mirrors the log).
	Reason string `json:"reason,omitempty"`
	// Utilization is the fleet-wide busy fraction read this cycle.
	Utilization float64 `json:"utilization"`
	// PlanBudget is the shrunk budget handed to the planner by a pure
	// scale-in (0 = the full configured budget).
	PlanBudget float64 `json:"plan_budget,omitempty"`
	// Models carries the per-model window snapshot behind the decision.
	Models map[string]ModelDecision `json:"models,omitempty"`
	// From and To are the fleet allocations before and after, keyed by
	// model then instance type; To is set only when the plan changed
	// (replans and heals).
	From map[string]ModelPlanStatus `json:"from,omitempty"`
	To   map[string]ModelPlanStatus `json:"to,omitempty"`
	// PlanMS is the wall-clock cost of computing the fleet plan this
	// cycle (0 when the cycle never reached the planner). Always
	// serialized so journal consumers can rely on the field.
	PlanMS float64 `json:"plan_ms"`
	// ActuationMS is the wall-clock cost of reconciling the fleet
	// (replans and heals only).
	ActuationMS float64 `json:"actuation_ms,omitempty"`
	// PreemptDrainMS and PreemptReplanMS time a "preempt" entry's two
	// deadlines: notice-to-drained (the doomed instance is empty and
	// disconnected) and notice-to-replanned (the fleet is reconciled
	// around the hole). Both race the revocation deadline.
	PreemptDrainMS  float64 `json:"preempt_drain_ms,omitempty"`
	PreemptReplanMS float64 `json:"preempt_replan_ms,omitempty"`
	// Err is the failure behind an "error" kind, empty otherwise.
	Err string `json:"err,omitempty"`
}

// journal is a bounded log of decision events, oldest first. Writes happen
// at control-loop frequency (roughly one per second), so a plain mutex and
// a shift on overflow are fine — this is nowhere near the serving hot path.
type journal struct {
	mu   sync.Mutex
	seq  int64
	size int
	buf  []DecisionEvent
}

func newJournal(n int) *journal {
	if n <= 0 {
		n = defaultJournalSize
	}
	return &journal{size: n}
}

// add stamps the event's sequence number and appends it, rotating the
// oldest entry out once the journal is full.
func (j *journal) add(ev DecisionEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	ev.Seq = j.seq
	if len(j.buf) == j.size {
		j.buf = j.buf[:copy(j.buf, j.buf[1:])]
	}
	j.buf = append(j.buf, ev)
}

// events returns up to max retained entries in chronological order
// (oldest first); max <= 0 returns everything retained.
func (j *journal) events(max int) []DecisionEvent {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := slices.Clone(j.buf)
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// Decisions returns the retained decision journal in chronological
// order. Soak runs write it next to their benchmark report so replan
// entries can be lined up against injected faults.
func (a *Autopilot) Decisions() []DecisionEvent {
	return a.journal.events(0)
}

// planCounts renders a fleet plan as the journal's per-model allocation
// view.
func (a *Autopilot) planCounts(p core.FleetPlan) map[string]ModelPlanStatus {
	if len(p) == 0 {
		return nil
	}
	out := make(map[string]ModelPlanStatus, len(p))
	for name, cfg := range p {
		out[name] = a.modelPlanStatus(cfg)
	}
	return out
}

// record is the one place a journal entry is built and added. dec, set for
// a Step, supplies the trigger reading; o supplies what was done about it.
func (a *Autopilot) record(kind, reason string, dec *Decision, o outcome) {
	ev := DecisionEvent{
		At: a.now(), Kind: kind, Reason: reason,
		From: a.planCounts(o.from), To: a.planCounts(o.to),
		PlanMS: o.planMS, ActuationMS: o.actuateMS,
		PreemptDrainMS: o.drainMS, PreemptReplanMS: o.replanMS,
	}
	if o.err != nil {
		ev.Err = o.err.Error()
	}
	if dec != nil {
		ev.Triggers, ev.Utilization, ev.PlanBudget = dec.triggerNames(), dec.Utilization, dec.PlanBudget
		ev.Models = make(map[string]ModelDecision, len(dec.Models))
		for name, md := range dec.Models {
			md.TailMS = zeroNaN(md.TailMS) // an empty latency window; JSON has no NaN
			ev.Models[name] = md
		}
	}
	a.journal.add(ev)
}
