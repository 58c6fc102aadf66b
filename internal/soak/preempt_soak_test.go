package soak

import (
	"testing"
	"time"

	"kairos/internal/cloud"
	"kairos/internal/workload"
)

// TestSoakRunPreemptInProcess: a scheduled spot revocation mid-spike.
// The notice must be answered end to end — drain ahead of the deadline,
// replan, zero drops — and must never surface as an instance death
// (CheckPreemptions would flag that as a violation).
func TestSoakRunPreemptInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping soak run in -short mode")
	}
	sys := startSystem(t, cloud.Config{0, 0, 2, 0})
	report, err := Run(sys, Config{
		Scenario: workload.FlashCrowd(2500, 60, 180, workload.Uniform{Min: 10, Max: 60}),
		Seed:     23,
		Models:   []string{ncf().Name},
		Faults:   []FaultSpec{PreemptAt(0.4, 1500*time.Millisecond)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Passed() {
		t.Fatalf("soak violations: %v", report.Violations)
	}
	if len(report.Faults) != 1 {
		t.Fatalf("faults = %+v", report.Faults)
	}
	if ev := report.Faults[0]; ev.Kind != "preempt" || ev.Err != "" || ev.RecoveryMS < 0 {
		t.Fatalf("preempt never answered: %+v", ev)
	}
	if f := sys.AP.Faults(); f.Preemptions != 1 || f.PreemptionsDrained != 1 || f.PreemptionsReplanned != 1 || f.PreemptionDeadlineDeaths != 0 {
		t.Fatalf("preemption accounting: %+v", f)
	}
}

// TestSoakRunPreemptionStorm is the fault-storm scenario: overlapping
// revocation notices drain the model's whole fleet at once, then SIGKILLs
// land on the relaunched capacity — transiently taking the model to zero
// live instances, inside the empty-hold window that parks its queries.
// The storm must end with every notice answered, every kill healed, and
// not one admitted query dropped.
func TestSoakRunPreemptionStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping soak storm in -short mode")
	}
	sys := startSystem(t, cloud.Config{0, 0, 2, 0})
	model := ncf().Name
	report, err := Run(sys, Config{
		Scenario:  workload.FlashCrowd(3000, 60, 180, workload.Uniform{Min: 10, Max: 60}),
		Seed:      31,
		Models:    []string{model},
		EmptyHold: 10 * time.Second,
		Faults: []FaultSpec{
			// Both instances noticed while the first drain is still open.
			PreemptAt(0.22, 2*time.Second),
			PreemptAt(0.26, 2*time.Second),
			// Then the crash storm: kills aimed at the same model, the
			// second often landing while the first heal is in flight.
			{Kind: FaultKill, At: 0.55, Model: model},
			{Kind: FaultKill, At: 0.62, Model: model},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Passed() {
		t.Fatalf("storm violations: %v", report.Violations)
	}
	if report.Failed != 0 {
		t.Fatalf("%d admitted queries dropped in the storm", report.Failed)
	}
	if len(report.Faults) != 4 {
		t.Fatalf("faults = %+v", report.Faults)
	}
	for _, ev := range report.Faults {
		if ev.Err != "" {
			t.Fatalf("injection failed: %+v", ev)
		}
		if ev.RecoveryMS < 0 {
			t.Fatalf("%s at %s never recovered: %+v", ev.Kind, ev.Target, ev)
		}
	}
	if f := sys.AP.Faults(); f.Preemptions != 2 || f.PreemptionsDrained != 2 || f.PreemptionsReplanned != 2 || f.PreemptionDeadlineDeaths != 0 {
		t.Fatalf("storm preemption accounting: %+v", f)
	}
}
