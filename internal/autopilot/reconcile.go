package autopilot

import (
	"fmt"
	"time"

	"kairos/internal/core"
)

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// outcome is what one control action did about the fleet: what its journal
// entry carries beyond the trigger reading.
type outcome struct {
	from, to          core.FleetPlan
	planMS, actuateMS float64
	// drainMS and replanMS time a preemption's two deadlines.
	drainMS, replanMS float64
	err               error
}

// reconcile is the one way a plan reaches the fleet. Its three callers
// take the plan from one of two places: Heal and the step after a
// preemption drain reconcile to the plan in force, a fired trigger to a
// fresh fleet plan. The contract: vet the
// plan — a refused plan touched nothing and is only recorded as the control
// error; actuate it; on success install it as the plan in force (counting a
// reconfiguration if it differs), count a heal if a fault was pending,
// clear the recorded control error whoever recorded it, and re-baseline
// the rate estimator — removed instances take their cumulative BusyMS out
// of the stats, so the next delta would read as a phantom idle tick; on a
// failed actuation record the error, leave a fault pending and kick the
// loop once, so the next Heal brings the fleet to the plan in force.
// Either way, the holds owed so far are released once actuate returns. kind
// ("heal", "preempt", "actuate") names the caller in the error. The caller
// journals the outcome; it gets the actuation's cost in ms. Holds stepMu.
func (a *Autopilot) reconcile(kind string, want core.FleetPlan) (float64, error) {
	fail := func(err error, touched bool) (float64, error) {
		a.mu.Lock()
		a.lastErr = kind + ": " + err.Error()
		a.faults.Pending = a.faults.Pending || touched
		a.mu.Unlock()
		if touched {
			a.kick()
		}
		return 0, fmt.Errorf("autopilot: %s: %w", kind, err)
	}
	if err := a.checkPlan(want); err != nil {
		return fail(err, false)
	}
	// The actuator diffs against the observed fleet, so this pass answers
	// every fault (and hold) recorded so far; one recorded later stays.
	a.mu.Lock()
	healing, held := a.faults.Pending, a.releases
	a.faults.Pending, a.releases = false, nil
	a.mu.Unlock()
	start := a.now()
	err := a.actuate(want)
	for _, r := range held {
		r()
	}
	if err != nil {
		return fail(err, true)
	}
	end := a.now()
	a.mu.Lock()
	defer a.mu.Unlock()
	if !want.Equal(a.current) {
		a.current = want.Clone()
		a.replans++
	}
	if healing {
		a.faults.Heals++
		a.faults.LastRecovery = end
	}
	a.lastErr = ""
	a.rates.at = time.Time{}
	return millis(end.Sub(start)), nil
}

// checkPlan reports why a plan cannot be actuated: it deploys nothing,
// names a model the autopilot does not manage, or carries a config that
// does not match the pool.
func (a *Autopilot) checkPlan(p core.FleetPlan) error {
	if p.Total() == 0 {
		return fmt.Errorf("unusable plan %v: it deploys nothing", p)
	}
	for name, cfg := range p {
		if _, ok := a.states[name]; !ok || len(cfg) != len(a.wiring.Pool) {
			return fmt.Errorf("unusable config %v for %q", cfg, name)
		}
	}
	return nil
}

// actuate reconciles every model's running fleet toward the plan, diffing
// against the controller's observed per-model instance counts rather than
// replaying plan deltas — a partially-failed earlier actuation self-heals
// on the next pass. All additions happen before any removal (no model's
// capacity dips below both states' minimum), and removals drain —
// in-flight queries always finish. Launches and stops go through the
// actuation provider, so the same loop manages in-process servers and
// real kairosd processes. reconcile is its only caller.
func (a *Autopilot) actuate(to core.FleetPlan) error {
	// cells visits every (model, type) with the observed and wanted counts.
	cells := func(visit func(model, typeName string, have, want int) error) error {
		for _, name := range a.names {
			have := a.fleet.ModelInstanceCounts(name)
			for i, t := range a.wiring.Pool {
				want := 0
				if cfg := to[name]; cfg != nil {
					want = cfg[i]
				}
				if err := visit(name, t.Name, have[t.Name], want); err != nil {
					return err
				}
			}
		}
		return nil
	}
	err := cells(func(model, typeName string, have, want int) error {
		for ; have < want; have++ {
			addr, err := a.provider.Launch(model, typeName)
			if err != nil {
				return err
			}
			if _, err := a.fleet.AddInstance(addr); err != nil {
				a.provider.Stop(addr)
				return err
			}
			a.logf("autopilot: added %s for %s at %s", typeName, model, addr)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return cells(func(model, typeName string, have, want int) error {
		for ; want < have; want++ {
			addr, err := a.fleet.RemoveInstance(model, typeName)
			if err != nil {
				return err
			}
			if err := a.provider.Stop(addr); err != nil {
				return err
			}
			a.logf("autopilot: drained and removed %s for %s at %s", typeName, model, addr)
		}
		return nil
	})
}

// kick wakes the control loop for an immediate heal.
func (a *Autopilot) kick() {
	select {
	case a.faultKick <- struct{}{}:
	default:
	}
}

// fault updates the fault/preemption bookkeeping under the lock and lists
// hold, if any, under it: the reconcile that clears a pending fault
// releases the holds listed with it. After Close began it releases at once.
func (a *Autopilot) fault(hold func(), update func(f *FaultStatus)) {
	a.mu.Lock()
	update(&a.faults)
	if hold != nil && !a.stopped() {
		a.releases = append(a.releases, hold)
		hold = nil
	}
	a.mu.Unlock()
	if hold != nil {
		hold()
	}
}

// planTimed runs one planner call and reports its wall-clock cost in ms,
// recording it in the plan histogram.
func (a *Autopilot) planTimed(call func()) float64 {
	start := a.now()
	call()
	took := a.now().Sub(start)
	a.planHist.Record(took)
	return millis(took)
}

// Step runs one control iteration: read every model's live window,
// evaluate the drift, SLO, and scale-in triggers, and — when one fires
// outside the cooldown — replan the whole fleet from the live samples and
// reconcile every model's fleet. It is the loop's body, exported so tests
// and tools can drive the control plane deterministically.
func (a *Autopilot) Step() (Decision, error) {
	a.stepMu.Lock()
	defer a.stepMu.Unlock()
	dec, o := a.step()
	a.record(dec.kind(o.err), dec.Reason, &dec, o)
	return dec, o.err
}

// step is Step's body: sense, decide, and for a fired trigger plan and
// reconcile. Callers hold stepMu.
func (a *Autopilot) step() (dec Decision, o outcome) {
	now := a.now()
	r := a.sense(now)
	a.mu.Lock()
	current := a.current.Clone()
	dec, fire, err := a.trig.decide(now, r, current)
	if err == nil && !fire && dec.Checked {
		// A warm iteration that completes without error supersedes a
		// recorded control failure — health reflects the latest outcome.
		a.lastErr = ""
	}
	a.mu.Unlock()
	if o.from, o.err = dec.From, err; err != nil || !fire {
		return dec, o
	}

	var next core.FleetPlan
	o.planMS = a.planTimed(func() { next, err = a.wiring.Plan(r.samples, r.arrivals, dec.PlanBudget) })
	if err != nil {
		a.mu.Lock()
		a.lastErr = fmt.Sprintf("replan: %v", err)
		a.mu.Unlock()
		o.err = fmt.Errorf("autopilot: replan: %w", err)
		return dec, o
	}
	if next.Total() == 0 && dec.PlanBudget > 0 {
		// Under a pure scale-in, a shrunk budget that buys no fleet means
		// there is nothing safe to shed: keep the current fleet and re-arm,
		// instead of looping on a recorded error every tick.
		a.mu.Lock()
		a.trig.lowTicks = 0
		a.lastErr = ""
		a.mu.Unlock()
		dec.Reason = fmt.Sprintf("scale-in budget $%.2f/hr buys no fleet; keeping the current plan", dec.PlanBudget)
		return dec, o
	}
	// A model with no planning sample at all (cold window, no reference)
	// was invisible to the planner; carry its current allocation forward
	// instead of reading the absence as "tear its fleet down to zero". (A
	// plan that deploys nothing is left for reconcile to refuse.)
	if next.Total() > 0 {
		for _, name := range a.names {
			if cur := current[name]; len(r.samples[name]) == 0 && cur.Total() > 0 && next[name].Total() == 0 {
				next[name] = cur.Clone()
			}
		}
	}
	reason := fmt.Sprintf("%s trigger (util %.2f, %s)", dec.triggerNames(), dec.Utilization, a.trig.modelSummary(dec))
	if next.Equal(current) {
		reason += ", plan unchanged"
		dec.Reason = "trigger fired but the plan is unchanged"
	} else {
		if o.actuateMS, o.err = a.reconcile("actuate", next); o.err != nil {
			return dec, o
		}
		dec.Replanned, dec.To, dec.Reason, o.to = true, next.Clone(), reason, next
	}
	a.mu.Lock()
	o.err = a.trig.answered(now, r, dec)
	a.lastReason = reason
	a.lastErr = ""
	a.mu.Unlock()
	// The trigger has been answered and the latency windows measured the
	// old fleet: without a fresh SLO view the old breach samples would
	// re-fire it every cooldown.
	a.resetLatencyWindows()
	return dec, o
}

// Heal answers pending faults — instance deaths and failed actuations: it
// reconciles toward the plan in force, so the diff-based actuator
// relaunches exactly the missing instances. Unlike Step it bypasses the
// triggers and the cooldown — lost capacity is restored immediately, not
// on the next drift tick. It reports whether a heal ran. A failed heal
// leaves the fault pending so the next tick (or kick) retries.
func (a *Autopilot) Heal() (bool, error) {
	a.stepMu.Lock()
	defer a.stepMu.Unlock()
	a.mu.Lock()
	pending, plan, detail := a.faults.Pending, a.current.Clone(), a.faults.LastDetail
	a.mu.Unlock()
	if !pending {
		return false, nil
	}
	actuateMS, err := a.reconcile("heal", plan)
	if err != nil {
		a.record("error", "heal: "+detail, nil, outcome{err: err})
		return false, err
	}
	a.record("heal", "healing fault: "+detail, nil, outcome{to: plan, actuateMS: actuateMS})
	a.logf("autopilot: healed fleet back to %v", plan)
	return true, nil
}

// onInstanceDown is the controller's eviction callback: an instance died
// outside an orderly removal. The fault is recorded with the eviction's
// hold, the provider's bookkeeping for the dead address is reaped
// (asynchronously — this runs on the controller's read path), and the
// control loop is kicked for an immediate heal instead of retrying a dead
// address until the next drift tick.
func (a *Autopilot) onInstanceDown(model, typeName, addr string, cause error, hold func()) {
	at, detail := a.now(), fmt.Sprintf("%s/%s at %s: %v", model, typeName, addr, cause)
	a.fault(hold, func(f *FaultStatus) {
		f.LastFault, f.LastDetail, f.Pending = at, detail, true
		f.InstancesLost++
	})
	a.logf("autopilot: instance down: %s", detail)
	a.spawn(func() {
		if err := a.provider.Reap(addr); err != nil {
			a.logf("autopilot: reaping %s: %v", addr, err)
		}
		a.kick()
	})
}

// handlePreemption answers one revocation notice: drain the doomed
// instance immediately (reusing the controller's orderly removal, so
// in-flight queries finish and the backlog redistributes), release it at
// the provider, then re-actuate the plan in force to fill the hole — all
// racing the revocation deadline, while a hold parks the model's queries.
// An instance that dies mid-drain falls back to the eviction path:
// stranded queries were already redispatched and a heal kicked under the
// eviction's own hold, so the notice handler just records the loss.
//
// Runs on its own goroutine per notice: the drain blocks on in-flight
// work and must not stall the control loop or other notices.
func (a *Autopilot) handlePreemption(p Preemption) {
	noticeAt := a.now()
	a.fault(nil, func(f *FaultStatus) {
		f.Preemptions++
		f.LastPreempt, f.LastPreemptDetail = noticeAt, "notice for "+p.Addr
	})
	a.logf("autopilot: preemption notice for %s (deadline in %v)", p.Addr, p.Deadline.Sub(noticeAt).Round(time.Millisecond))

	hold := a.fleet.Hold(p.Model)
	model, typeName, died, err := a.fleet.RemoveInstanceAddr(p.Addr)
	drained := a.now().Sub(noticeAt)
	o := outcome{drainMS: millis(drained), err: err}
	detail := fmt.Sprintf("%s/%s at %s", model, typeName, p.Addr)
	if err != nil || died {
		hold() // nothing to refill, or the eviction's hold took over
	}
	switch {
	case err != nil:
		a.fault(nil, func(f *FaultStatus) { f.LastPreemptDetail = fmt.Sprintf("notice for %s: %v", p.Addr, err) })
		a.record("preempt", "preemption notice for "+p.Addr, nil, o)
		a.logf("autopilot: preemption drain of %s failed: %v", p.Addr, err)
		return
	case died:
		a.fault(nil, func(f *FaultStatus) {
			f.PreemptionDeadlineDeaths++
			f.LastPreemptDetail = detail + ": died mid-drain"
		})
		a.record("preempt", "preempted "+detail+" died mid-drain; eviction redispatch + heal fallback", nil, o)
		a.logf("autopilot: preempted %s died mid-drain; eviction fallback handled it", detail)
		return
	}
	a.preemptHist.Record(drained)
	a.fault(hold, func(f *FaultStatus) { // any reconcile from here sees the hole
		f.PreemptionsDrained++
		f.LastPreemptDetail = detail + ": drained"
	})
	if err := a.provider.Stop(p.Addr); err != nil {
		a.logf("autopilot: stopping preempted %s: %v", detail, err)
	}
	beatDeadline := ""
	if left := p.Deadline.Sub(a.now()); left > 0 {
		beatDeadline = fmt.Sprintf(", %v ahead of the deadline", left.Round(time.Millisecond))
	}
	a.logf("autopilot: drained preempted %s in %.1fms%s", detail, o.drainMS, beatDeadline)
	if !a.stopped() { // closing: the fleet is going away, there is no hole to fill
		a.afterDrain(detail, noticeAt, o)
	}
}

// afterDrain fills the capacity hole a drained preemption left: it
// reconciles toward the plan in force, as Heal does, so the diff-based
// actuator relaunches the missing instance. It never plans: a window that
// moved meanwhile is the drift trigger's to answer, under its cooldown.
func (a *Autopilot) afterDrain(detail string, noticeAt time.Time, o outcome) {
	a.stepMu.Lock()
	defer a.stepMu.Unlock()
	plan := a.Current()
	if o.actuateMS, o.err = a.reconcile("preempt", plan); o.err != nil {
		a.record("preempt", "preempted "+detail+": post-drain actuation failed", nil, o)
		a.logf("autopilot: post-preemption actuation failed: %v", o.err)
		return
	}
	o.from, o.to, o.replanMS = plan, plan, millis(a.now().Sub(noticeAt))
	a.fault(nil, func(f *FaultStatus) { f.PreemptionsReplanned++ })
	a.record("preempt", "preempted "+detail+": drained and re-actuated the plan in force", nil, o)
	a.logf("autopilot: refilled the hole of preempted %s in %.1fms (drain %.1fms)", detail, o.replanMS, o.drainMS)
}
