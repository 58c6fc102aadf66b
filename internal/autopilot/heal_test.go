package autopilot

import (
	"testing"
	"time"

	"kairos/internal/cloud"
	"kairos/internal/workload"
)

// TestHealRelaunchesKilledInstance: an instance death must become a
// first-class control event — the fault is recorded, the provider's
// bookkeeping is reaped, and Heal relaunches exactly the lost capacity
// from the plan in force, without a trigger or a cooldown in the way.
func TestHealRelaunchesKilledInstance(t *testing.T) {
	t.Parallel()
	m := ncf()
	initial := cloud.Config{0, 0, 2, 0} // 2x CPU
	w := Wiring{
		Plan: singlePlan(m, func([]int) (cloud.Config, error) {
			return initial.Clone(), nil
		}),
		References: map[string][]int{m.Name: samplesOf(workload.Uniform{Min: 10, Max: 60}, 200, 1)},
	}
	opts := Options{
		Window:          60,
		MinObservations: 30,
		Cooldown:        time.Hour, // a heal must not wait out a cooldown
	}
	ap := startAutopilot(t, initial, w, opts)
	ap.Controller().SetEmptyHold(10 * time.Second)
	fleet := ap.Provider().(*Fleet)

	// Kill one of the two CPU instances out from under the controller.
	addrs := fleet.Addrs()
	if len(addrs) != 2 {
		t.Fatalf("fleet = %v", addrs)
	}
	if err := fleet.Kill(addrs[0]); err != nil {
		t.Fatal(err)
	}

	// The eviction must reach the fault bookkeeping.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ap.Faults().InstancesLost == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("instance death never recorded as a fault")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Drive the heal deterministically (the loop is not started).
	deadline = time.Now().Add(5 * time.Second)
	for {
		healed, err := ap.Heal()
		if err == nil && healed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("heal never ran (err=%v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The fleet is back to plan: two live CPU instances, and the provider
	// tracks exactly the live ones (the corpse was reaped).
	if got := ap.Controller().ModelInstanceCounts(m.Name)[cloud.R5nLarge.Name]; got != 2 {
		t.Fatalf("healed fleet has %d CPU instances, want 2", got)
	}
	// The reap runs on its own goroutine (the down callback is on the
	// controller's read path), so it may still be finishing.
	for deadline = time.Now().Add(5 * time.Second); fleet.Size() != 2; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("provider tracks %d servers, want 2", fleet.Size())
		}
	}
	f := ap.Faults()
	if f.LastFault.IsZero() || f.LastRecovery.IsZero() || f.LastRecovery.Before(f.LastFault) {
		t.Fatalf("fault %v, recovery %v", f.LastFault, f.LastRecovery)
	}
	if f.InstancesLost != 1 || f.Heals != 1 || f.Pending || f.LastDetail == "" {
		t.Fatalf("fault state: %+v", f)
	}

	// A second heal with nothing pending is a no-op.
	if healed, err := ap.Heal(); err != nil || healed {
		t.Fatalf("idle heal = (%v, %v)", healed, err)
	}

	// The healed fleet serves.
	if res := ap.Controller().SubmitWait(m.Name, 100); res.Err != nil {
		t.Fatal(res.Err)
	}
	st := ap.Status()
	if st.Faults.InstancesLost != 1 || st.Faults.Heals != 1 || st.Faults.Pending {
		t.Fatalf("admin fault status = %+v", st.Faults)
	}
}

// TestHealSurvivesTotalModelLoss: killing every instance of a model with
// an empty-hold window must not drop in-flight queries — they park until
// the heal relaunches capacity.
func TestHealSurvivesTotalModelLoss(t *testing.T) {
	t.Parallel()
	m := ncf()
	initial := cloud.Config{0, 0, 1, 0} // a single CPU
	w := Wiring{
		Plan: singlePlan(m, func([]int) (cloud.Config, error) {
			return initial.Clone(), nil
		}),
		References: map[string][]int{m.Name: samplesOf(workload.Uniform{Min: 10, Max: 60}, 200, 1)},
	}
	opts := Options{
		Window:          60,
		MinObservations: 30,
	}
	ap := startAutopilot(t, initial, w, opts)
	ap.Controller().SetEmptyHold(30 * time.Second)
	fleet := ap.Provider().(*Fleet)

	addrs := fleet.Addrs()
	if len(addrs) != 1 {
		t.Fatalf("fleet = %v", addrs)
	}

	// Submit, then kill the only instance. The query either completed
	// already or is redispatched after the heal; either way it must not
	// fail.
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			done <- ap.Controller().SubmitWait(m.Name, 400).Err
		}()
	}
	time.Sleep(5 * time.Millisecond)
	if err := fleet.Kill(addrs[0]); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		if healed, _ := ap.Heal(); healed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("heal never answered the fault")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < 8; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("query dropped across total capacity loss: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("query hung across the heal")
		}
	}
	if got := ap.Controller().ModelInstanceCounts(m.Name)[cloud.R5nLarge.Name]; got != 1 {
		t.Fatalf("healed fleet has %d CPU instances, want 1", got)
	}
}
