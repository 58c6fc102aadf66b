// Package soak replays adversarial workload scenarios through the
// external ingress against a live autopilot-managed fleet while a fault
// injector perturbs it mid-run — SIGKILLs, wedged processes, slow and
// partitioned networks — and continuously asserts the paper's serving
// invariant: no admitted query is ever dropped. Every run is
// deterministic from a seed and renders a recovery-time and tail-latency
// trajectory (BENCH_soak.json) so the invariant ratchets instead of
// regressing silently.
package soak

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kairos/internal/autopilot"
	"kairos/internal/ingress"
	"kairos/internal/obs"
	"kairos/internal/workload"

	"math/rand"
)

// System is the live serving stack a soak run drives: a started
// autopilot (its ingress must have a TCP endpoint) and, optionally, the
// ChaosProvider interposed under it for network-level faults.
type System struct {
	// AP is the started autopilot owning controller, ingress, and
	// provider.
	AP *autopilot.Autopilot
	// Chaos, when the fleet was launched through WrapChaos, unlocks the
	// delay, stall, and partition faults and routes process-level faults
	// through the proxy address translation. Nil is fine for kill/wedge
	// against a bare provider.
	Chaos *ChaosProvider
}

// Config tunes one soak run.
type Config struct {
	// Scenario is the adversarial workload to replay.
	Scenario workload.Scenario
	// Seed makes the replay (arrivals, batches, fault targeting)
	// deterministic.
	Seed int64
	// TimeScale is the wall-clock compression the system runs under;
	// arrivals are paced at AtMS*TimeScale wall milliseconds and
	// latencies divide back out. Zero means 1 (real time).
	TimeScale float64
	// Models round-robins the scenario's queries across these models.
	Models []string
	// Faults schedules the mid-run perturbations.
	Faults []FaultSpec
	// SnapshotEvery paces the streaming invariant checker (default
	// 25ms).
	SnapshotEvery time.Duration
	// BucketMS sizes the latency-trajectory buckets in model
	// milliseconds (default: duration/20).
	BucketMS float64
	// Clients is the number of concurrent ingress TCP connections
	// (default 4).
	Clients int
	// Token is the bearer token the replay clients present at dial
	// time; required when the ingress front door is auth-gated.
	Token string
	// EmptyHold is how long the controller parks a model's queries when
	// a fault takes its last instance, giving the heal time to relaunch
	// (default 30s wall clock; see server.Controller.SetEmptyHold).
	EmptyHold time.Duration
	// ConvergeTimeout bounds the post-replay drain: all admitted queries
	// delivered and the fleet re-converged (default 30s wall clock).
	ConvergeTimeout time.Duration
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() error {
	if len(c.Scenario.Phases) == 0 {
		return fmt.Errorf("soak: empty scenario")
	}
	if len(c.Models) == 0 {
		return fmt.Errorf("soak: no target models")
	}
	if c.TimeScale <= 0 {
		c.TimeScale = 1
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 25 * time.Millisecond
	}
	if c.BucketMS <= 0 {
		c.BucketMS = c.Scenario.DurationMS() / 20
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.EmptyHold <= 0 {
		c.EmptyHold = 30 * time.Second
	}
	if c.ConvergeTimeout <= 0 {
		c.ConvergeTimeout = 30 * time.Second
	}
	return nil
}

// Run replays the scenario against the system, injecting the configured
// faults, and returns the full report. A non-nil error means the run
// could not execute (bad config, unreachable ingress); invariant
// violations do NOT error — they are the report's Violations, so a soak
// harness can always record what happened.
func Run(sys System, cfg Config) (*Report, error) {
	if sys.AP == nil {
		return nil, fmt.Errorf("soak: nil autopilot")
	}
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	ing := sys.AP.Ingress()
	if ing == nil || ing.TCPAddr() == "" {
		return nil, fmt.Errorf("soak: the autopilot has no TCP ingress (use WithIngress)")
	}
	for _, f := range cfg.Faults {
		if err := f.validate(sys.Chaos != nil); err != nil {
			return nil, err
		}
	}
	ctrl := sys.AP.Controller()
	ctrl.SetEmptyHold(cfg.EmptyHold)

	arrivals := cfg.Scenario.Generate(cfg.Seed)
	if len(arrivals) == 0 {
		return nil, fmt.Errorf("soak: scenario %q generated no arrivals", cfg.Scenario.Name)
	}
	durMS := cfg.Scenario.DurationMS()

	clients := make([]*ingress.Client, cfg.Clients)
	for i := range clients {
		c, err := ingress.DialWith(ing.TCPAddr(), ingress.DialOptions{Token: cfg.Token})
		if err != nil {
			for _, prev := range clients[:i] {
				prev.Close()
			}
			return nil, fmt.Errorf("soak: dialing ingress: %w", err)
		}
		clients[i] = c
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	rec := newRecorder(cfg.BucketMS)
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed5eed))
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// The streaming checker snapshots the controller for the whole run.
	var checker Checker
	var checkMu sync.Mutex
	stopSnapshots := make(chan struct{})
	snapshotsDone := make(chan struct{})
	go func() {
		defer close(snapshotsDone)
		tick := time.NewTicker(cfg.SnapshotEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopSnapshots:
				return
			case <-tick.C:
				st := ctrl.Stats()
				checkMu.Lock()
				checker.Observe(st)
				checkMu.Unlock()
			}
		}
	}()

	start := time.Now()
	modelMS := func() float64 {
		return float64(time.Since(start)) / float64(time.Millisecond) / cfg.TimeScale
	}

	// Faults fire on wall-clock timers; lifts and recovery measurements
	// are tracked so the drain waits for them.
	var faultWG sync.WaitGroup
	for _, spec := range cfg.Faults {
		spec := spec
		delay := time.Duration(spec.At * durMS * cfg.TimeScale * float64(time.Millisecond))
		faultWG.Add(1)
		timer := time.AfterFunc(delay, func() {
			defer faultWG.Done()
			injectFault(sys, spec, rng, rec, &faultWG, cfg, modelMS, logf)
		})
		defer timer.Stop()
	}

	// Replay: pace the arrivals, submit each through a round-robin
	// ingress client, and record client-observed latency.
	var submitted, admitted, rejected, failed atomic.Int64
	var queryWG sync.WaitGroup
	logf("soak: replaying %s: %d arrivals over %.0fms (x%g wall) with %d faults",
		cfg.Scenario.Name, len(arrivals), durMS, cfg.TimeScale, len(cfg.Faults))
	for i, a := range arrivals {
		due := start.Add(time.Duration(a.AtMS * cfg.TimeScale * float64(time.Millisecond)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		model := cfg.Models[i%len(cfg.Models)]
		client := clients[i%len(clients)]
		atMS := a.AtMS
		batch := a.Batch
		submitted.Add(1)
		queryWG.Add(1)
		go func() {
			defer queryWG.Done()
			t0 := time.Now()
			rep, err := client.Submit(model, batch)
			switch {
			case err != nil:
				failed.Add(1)
			case rep.Err == ingress.QueueFullMsg, rep.Err == ingress.RateLimitedMsg:
				// Both are pre-admission turn-aways: the query never
				// entered the system, so it is rejected, not dropped.
				rejected.Add(1)
			case rep.Err != "":
				admitted.Add(1)
				failed.Add(1)
			default:
				admitted.Add(1)
				rec.observe(atMS, float64(time.Since(t0))/float64(time.Millisecond)/cfg.TimeScale)
			}
		}()
	}
	queryWG.Wait()
	faultWG.Wait()

	// Drain: every admitted query delivered, queues empty, fleet healed.
	deadline := time.Now().Add(cfg.ConvergeTimeout)
	for time.Now().Before(deadline) {
		st := ctrl.Stats()
		if !sys.AP.Faults().Pending && st.Waiting == 0 && st.Completed+st.Failed == st.Submitted {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	close(stopSnapshots)
	<-snapshotsDone
	faults := sys.AP.Faults()
	checkMu.Lock()
	// Anything still outstanding after the drain is a stuck query; name
	// each one (trace ID, last stage) before the aggregate checks run.
	if outstanding := ctrl.OutstandingQueries(); len(outstanding) > 0 {
		checker.NameOutstanding(outstanding)
	}
	checker.CheckPreemptions(faults.Preemptions, faults.PreemptionsDrained, faults.PreemptionsReplanned, faults.PreemptionDeadlineDeaths)
	violations := checker.Finalize(ctrl.Stats(), faults.Pending)
	checkMu.Unlock()

	report := &Report{
		Scenario:     cfg.Scenario.Name,
		Seed:         cfg.Seed,
		DurationMS:   durMS,
		TimeScale:    cfg.TimeScale,
		Submitted:    submitted.Load(),
		Admitted:     admitted.Load(),
		Rejected:     rejected.Load(),
		Failed:       failed.Load(),
		PlanCost:     sys.AP.Status().Plan.Cost,
		Faults:       rec.faultEvents(),
		Trajectory:   rec.trajectory(),
		StageLatency: stageLatency(ctrl.Obs(), cfg.TimeScale),
		Violations:   violations,
	}
	if report.Admitted > 0 {
		report.CostPer1KQueries = report.PlanCost * (durMS / 3.6e6) / float64(report.Admitted) * 1000
	}
	if report.Failed > 0 {
		report.Violations = append(report.Violations,
			fmt.Sprintf("client: %d admitted queries returned errors", report.Failed))
	}
	for _, ev := range report.Faults {
		if ev.Err != "" {
			report.Violations = append(report.Violations,
				fmt.Sprintf("inject: %s at %s failed: %s", ev.Kind, ev.Target, ev.Err))
		} else if FaultKind(ev.Kind).capacityLosing() && ev.RecoveryMS < 0 {
			report.Violations = append(report.Violations,
				fmt.Sprintf("recovery: %s at %s never re-converged", ev.Kind, ev.Target))
		} else if FaultKind(ev.Kind) == FaultPreempt && ev.RecoveryMS < 0 {
			report.Violations = append(report.Violations,
				fmt.Sprintf("recovery: preempt at %s was never answered by a replan", ev.Target))
		}
	}
	logf("soak: %s done: submitted=%d admitted=%d rejected=%d failed=%d violations=%d",
		cfg.Scenario.Name, report.Submitted, report.Admitted, report.Rejected,
		report.Failed, len(report.Violations))
	return report, nil
}

// stageLatency reads the flight recorder's per-stage histograms into
// the report's breakdown, converting wall nanoseconds to model
// milliseconds. Stages that recorded nothing are omitted.
func stageLatency(reg *obs.Registry, timeScale float64) map[string]map[string]StageQuantiles {
	out := make(map[string]map[string]StageQuantiles)
	toMS := func(d time.Duration) float64 {
		return float64(d) / float64(time.Millisecond) / timeScale
	}
	for _, name := range reg.Models() {
		mo := reg.Model(name)
		stages := make(map[string]StageQuantiles)
		for _, st := range obs.Stages() {
			snap := mo.StageSnapshot(st)
			if snap.Count == 0 {
				continue
			}
			stages[st.String()] = StageQuantiles{
				Count:  snap.Count,
				P50MS:  toMS(snap.Quantile(0.50)),
				P99MS:  toMS(snap.Quantile(0.99)),
				P999MS: toMS(snap.Quantile(0.999)),
			}
		}
		if len(stages) > 0 {
			out[name] = stages
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// injectFault picks a live target and applies one fault spec, recording
// the event and (for capacity-losing faults) measuring recovery.
func injectFault(sys System, spec FaultSpec, rng *rand.Rand, rec *recorder,
	faultWG *sync.WaitGroup, cfg Config, modelMS func() float64, logf func(string, ...any)) {
	ctrl := sys.AP.Controller()
	st := ctrl.Stats()
	type cand struct{ addr, model string }
	var cands []cand
	for _, is := range st.Instances {
		if spec.Model != "" && is.Model != spec.Model {
			continue
		}
		if spec.Kind == FaultPreempt && is.Draining {
			// Already noticed (or being removed): a second notice for the
			// same instance would have nothing left to drain.
			continue
		}
		cands = append(cands, cand{is.Addr, is.Model})
	}
	ev := FaultEvent{Kind: string(spec.Kind), AtMS: modelMS(), RecoveryMS: -1}
	if len(cands) == 0 {
		ev.Err = "no live instance to target"
		rec.fault(ev)
		return
	}
	pick := cands[rng.Intn(len(cands))]
	ev.Target, ev.Model = pick.addr, pick.model

	before := sys.AP.Faults()
	t0 := time.Now()
	var err error
	switch spec.Kind {
	case FaultKill:
		if sys.Chaos != nil {
			err = sys.Chaos.Kill(pick.addr)
		} else if k, ok := sys.AP.Provider().(killer); ok {
			err = k.Kill(pick.addr)
		} else {
			err = fmt.Errorf("provider %T cannot kill instances", sys.AP.Provider())
		}
	case FaultWedge:
		if sys.Chaos != nil {
			err = sys.Chaos.Wedge(pick.addr)
		} else if w, ok := sys.AP.Provider().(wedger); ok {
			err = w.Wedge(pick.addr)
		} else {
			err = fmt.Errorf("provider %T cannot wedge instances", sys.AP.Provider())
		}
		if err == nil {
			faultWG.Add(1)
			time.AfterFunc(spec.Duration, func() {
				defer faultWG.Done()
				if sys.Chaos != nil {
					sys.Chaos.Resume(pick.addr)
				} else if w, ok := sys.AP.Provider().(wedger); ok {
					w.Resume(pick.addr)
				}
			})
		}
	case FaultDelay:
		err = sys.Chaos.SetDelay(pick.addr, spec.Delay)
		if err == nil {
			faultWG.Add(1)
			time.AfterFunc(spec.Duration, func() {
				defer faultWG.Done()
				sys.Chaos.SetDelay(pick.addr, 0)
			})
		}
	case FaultStall:
		err = sys.Chaos.SetStall(pick.addr, true)
		if err == nil {
			faultWG.Add(1)
			time.AfterFunc(spec.Duration, func() {
				defer faultWG.Done()
				sys.Chaos.SetStall(pick.addr, false)
			})
		}
	case FaultPartition:
		err = sys.Chaos.Cut(pick.addr)
	case FaultPreempt:
		if sys.Chaos != nil {
			_, err = sys.Chaos.Preempt(pick.addr, spec.Duration)
		} else if pr, ok := sys.AP.Provider().(autopilot.Preempter); ok {
			_, err = pr.Preempt(pick.addr, spec.Duration)
		} else {
			err = fmt.Errorf("provider %T cannot preempt instances", sys.AP.Provider())
		}
	}
	if err != nil {
		ev.Err = err.Error()
		rec.fault(ev)
		logf("soak: inject %s at %s FAILED: %v", spec.Kind, pick.addr, err)
		return
	}
	rec.fault(ev)
	logf("soak: injected %s at %s (%s) t=%.0fms", spec.Kind, pick.addr, pick.model, ev.AtMS)

	// Recovery is read off the autopilot's fault bookkeeping. A capacity
	// loss is recovered once the autopilot heals past its pre-fault count
	// with no fault left pending; a preemption once the notice was answered
	// end to end (notice-to-replanned latency), or, when the drain lost the
	// race (died mid-drain), once the heal path recovered it instead.
	healed := func(f autopilot.FaultStatus) bool { return f.Heals > before.Heals && !f.Pending }
	var recovered func(f autopilot.FaultStatus) string // how, "" until recovered
	switch {
	case spec.Kind.capacityLosing():
		recovered = func(f autopilot.FaultStatus) string {
			if healed(f) {
				return "healed"
			}
			return ""
		}
	case spec.Kind == FaultPreempt:
		recovered = func(f autopilot.FaultStatus) string {
			switch {
			case f.PreemptionsReplanned > before.PreemptionsReplanned:
				return "drained and replanned"
			case f.PreemptionDeadlineDeaths > before.PreemptionDeadlineDeaths && healed(f):
				return "died mid-drain; healed"
			}
			return ""
		}
	default:
		return
	}
	faultWG.Add(1)
	go func() {
		defer faultWG.Done()
		for deadline := time.Now().Add(cfg.ConvergeTimeout); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			if how := recovered(sys.AP.Faults()); how != "" {
				rms := float64(time.Since(t0)) / float64(time.Millisecond) / cfg.TimeScale
				rec.setRecovery(pick.addr, rms)
				logf("soak: %s at %s %s in %.0fms", spec.Kind, pick.addr, how, rms)
				return
			}
		}
	}()
}
