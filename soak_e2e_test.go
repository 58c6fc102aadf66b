package kairos

import (
	"testing"
	"time"

	"kairos/internal/soak"
)

// TestSoakExecFleetSmoke is the chaos-harness acceptance smoke: a flash
// crowd replayed through the TCP ingress against a 2-model fleet of real
// kairosd processes launched behind the chaos interposer, with one of
// them SIGKILLed mid-spike. The run must uphold every soak invariant —
// zero admitted queries dropped, conservation in every snapshot, the
// fleet healed with a finite recovery time. Guarded by -short; CI runs
// it under -race.
func TestSoakExecFleetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping exec-fleet soak smoke in -short mode")
	}
	t.Parallel()
	bin := buildKairosd(t)
	e := multiEngine(t) // NCF + MT-WND, shared $0.9/hr

	chaos := &soak.Chaos{}
	fleet := NewExecFleet(bin, 1, "NCF", "MT-WND")
	fleet.Front = chaos.Front
	ap, err := e.Autopilot(1, AutopilotOptions{
		Interval: 50 * time.Millisecond,
		Provider: fleet,
		Ingress:  &IngressOptions{TCPAddr: "127.0.0.1:0", MaxQueue: 8192},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ap.Close()
	ap.Start()

	scenario, err := ScenarioByName("flash-crowd", 3000, 60)
	if err != nil {
		t.Fatal(err)
	}
	report, err := soak.Run(soak.System{AP: ap, Chaos: chaos}, soak.Config{
		Scenario: scenario,
		Seed:     42,
		Models:   []string{"NCF", "MT-WND"},
		Faults:   []soak.FaultSpec{soak.KillAt(0.35)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Passed() {
		t.Fatalf("soak violations: %v", report.Violations)
	}
	if report.Submitted == 0 || report.Failed != 0 {
		t.Fatalf("accounting: %+v", report)
	}
	if len(report.Faults) != 1 {
		t.Fatalf("faults = %+v", report.Faults)
	}
	if ev := report.Faults[0]; ev.Kind != "kill" || ev.Err != "" || ev.RecoveryMS < 0 {
		t.Fatalf("kill never healed: %+v", ev)
	}
	if len(report.Trajectory) == 0 {
		t.Fatal("no latency trajectory recorded")
	}

	// The controller's own accounting agrees: every admitted query
	// delivered, nothing failed, across a SIGKILL of a real process.
	st := ap.Controller().Stats()
	if st.Failed != 0 || st.Completed != st.Submitted {
		t.Fatalf("controller stats after soak: %+v", st)
	}
	// The fault surfaced in the admin status with a recovery stamped.
	status := ap.Status()
	if status.Faults.InstancesLost != 1 || status.Faults.Heals < 1 || status.Faults.Pending {
		t.Fatalf("fault status = %+v", status.Faults)
	}
	if !status.Faults.LastRecovery.After(status.Faults.LastFault) {
		t.Fatalf("recovery %v not after fault %v", status.Faults.LastRecovery, status.Faults.LastFault)
	}
}
