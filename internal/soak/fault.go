package soak

import (
	"fmt"
	"time"
)

// FaultKind names an injectable fault.
type FaultKind string

const (
	// FaultKill SIGKILLs (or force-closes) an instance mid-run. The
	// controller discovers the death through the broken connection,
	// redispatches the stranded queries, and the autopilot's fault path
	// reaps and relaunches — the canonical crash.
	FaultKill FaultKind = "kill"
	// FaultDelay adds Delay of one-way latency to every chunk on the
	// instance's wire for Duration.
	FaultDelay FaultKind = "delay"
	// FaultStall pauses all traffic to and from the instance for
	// Duration without losing a byte: the silent-instance fault. The
	// instance is alive but nothing it serves arrives, queries queue
	// behind it, the controller's writes back up exactly as they do
	// against a stopped process, and everything must still complete once
	// the stall lifts. It works the same on both launchers.
	FaultStall FaultKind = "stall"
	// FaultPartition hard-partitions the instance: its connections reset
	// and new ones are refused, so the controller treats it as dead and
	// the fleet must heal around a backend that is still running.
	FaultPartition FaultKind = "partition"
	// FaultPreempt delivers a spot-market revocation notice for the
	// instance (Duration is the notice window), then hard-kills it at the
	// deadline — exactly the sequence a cloud spot market performs. The
	// autopilot must drain ahead of the death and replan before the
	// deadline; a preemption that surfaces as an instance-death fault is
	// an invariant violation (the drain lost the race).
	FaultPreempt FaultKind = "preempt"
)

// capacityLosing reports whether the fault makes the controller evict
// the instance, so recovery means a relaunch rather than a lift.
func (k FaultKind) capacityLosing() bool {
	return k == FaultKill || k == FaultPartition
}

// FaultSpec schedules one fault within a soak run.
type FaultSpec struct {
	// Kind selects the fault.
	Kind FaultKind
	// At places the injection as a fraction of the scenario duration in
	// [0, 1).
	At float64
	// Duration is the lift window for delay and stall faults, and
	// the notice window (notice to deadline kill) for preempt faults
	// (wall clock).
	Duration time.Duration
	// Delay is the added per-chunk latency for FaultDelay.
	Delay time.Duration
	// Model optionally restricts the target to one model's instances;
	// empty targets any instance.
	Model string
}

// Validate rejects a malformed spec before anything launches.
func (f FaultSpec) Validate() error {
	if f.At < 0 || f.At >= 1 {
		return fmt.Errorf("soak: fault %s at %.2f outside [0,1)", f.Kind, f.At)
	}
	switch f.Kind {
	case FaultKill:
	case FaultStall:
		if f.Duration <= 0 {
			return fmt.Errorf("soak: fault %s needs a positive duration", f.Kind)
		}
	case FaultPreempt:
		if f.Duration <= 0 {
			return fmt.Errorf("soak: fault preempt needs a positive notice window (duration)")
		}
	case FaultDelay:
		if f.Duration <= 0 || f.Delay <= 0 {
			return fmt.Errorf("soak: fault delay needs positive duration and delay")
		}
	case FaultPartition:
	default:
		return fmt.Errorf("soak: unknown fault kind %q", f.Kind)
	}
	return nil
}

// KillAt is the one-fault spec most runs start from.
func KillAt(at float64) FaultSpec { return FaultSpec{Kind: FaultKill, At: at} }

// PreemptAt schedules a spot revocation: notice at the given fraction of
// the run, hard kill notice later.
func PreemptAt(at float64, notice time.Duration) FaultSpec {
	return FaultSpec{Kind: FaultPreempt, At: at, Duration: notice}
}
