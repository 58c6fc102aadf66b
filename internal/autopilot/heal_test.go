package autopilot

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kairos/internal/cloud"
	"kairos/internal/ingress"
	"kairos/internal/server"
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

// TestHealSurvivesTotalModelLoss: killing every instance of a model must
// not drop in-flight queries — the eviction's hold parks them until the
// heal relaunches capacity.
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

// failingFleet is the in-process fleet whose launches fail while fail is
// set: a heal that cannot bring capacity back.
type failingFleet struct {
	*Fleet
	fail atomic.Bool
}

func (f *failingFleet) Launch(model, typeName string) (string, error) {
	if f.fail.Load() {
		return "", errors.New("launch refused")
	}
	return f.Fleet.Launch(model, typeName)
}

// startOneCPU is startAutopilot over one CPU instance, planned to stay one.
func startOneCPU(t *testing.T, opts Options) *Autopilot {
	t.Helper()
	m, initial := ncf(), cloud.Config{0, 0, 1, 0}
	opts.Window, opts.MinObservations = 60, 30
	return startAutopilot(t, initial, Wiring{
		Plan:       singlePlan(m, func([]int) (cloud.Config, error) { return initial.Clone(), nil }),
		References: map[string][]int{m.Name: samplesOf(workload.Uniform{Min: 10, Max: 60}, 200, 1)},
	}, opts)
}

// killOnly kills the autopilot's only instance and waits until the
// eviction is recorded: from then on the eviction's hold is outstanding.
func killOnly(t *testing.T, ap *Autopilot, fleet *Fleet) {
	t.Helper()
	addrs := fleet.Addrs()
	if len(addrs) != 1 {
		t.Fatalf("fleet = %v", addrs)
	}
	if err := fleet.Kill(addrs[0]); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ap.Faults().InstancesLost != 1; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("instance death never recorded as a fault")
		}
	}
}

// TestFailedHealFailsParkedQueries: the hold a model's last eviction takes
// lasts one heal attempt. Queries submitted to the emptied model park
// while the heal is owed; a heal whose launch fails releases the hold, so
// every parked query fails within failedHealBound of the heal returning
// — naming the lost capacity — instead of hanging on a guessed window.
// The fault stays pending, and the retry that can launch serves again.
func TestFailedHealFailsParkedQueries(t *testing.T) {
	t.Parallel()
	const parked, failedHealBound = 6, 2 * time.Second
	m := ncf()
	provider := &failingFleet{Fleet: NewFleet(1, m)}
	ap := startOneCPU(t, Options{Provider: provider})
	ctrl := ap.Controller()

	provider.fail.Store(true)
	killOnly(t, ap, provider.Fleet)
	var chans []<-chan server.QueryResult
	for range parked {
		chans = append(chans, ctrl.Submit(m.Name, 100))
	}
	select {
	case r := <-chans[0]:
		t.Fatalf("query delivered while the heal is owed: %+v", r)
	case <-time.After(50 * time.Millisecond):
	}
	if st := ctrl.Stats(); st.Waiting != parked {
		t.Fatalf("%d waiting, want all %d parked", st.Waiting, parked)
	}

	if healed, err := ap.Heal(); healed || err == nil {
		t.Fatalf("heal with failing launches = (%v, %v), want an error", healed, err)
	}
	healed := time.Now()
	for i, ch := range chans {
		select {
		case r := <-ch:
			if r.Err == nil || !strings.Contains(r.Err.Error(), "no serving capacity") {
				t.Fatalf("parked query %d after the failed heal: %v", i, r.Err)
			}
		case <-time.After(failedHealBound - time.Since(healed)):
			t.Fatalf("parked query %d still undelivered %v after the failed heal", i, failedHealBound)
		}
	}
	if st := ctrl.Stats(); st.Failed != parked || st.Waiting != 0 || !ap.Faults().Pending {
		t.Fatalf("after the failed heal: %+v, faults %+v", st, ap.Faults())
	}

	provider.fail.Store(false)
	if healed, err := ap.Heal(); !healed || err != nil {
		t.Fatalf("retry heal = (%v, %v)", healed, err)
	}
	if res := ctrl.SubmitWait(m.Name, 100); res.Err != nil {
		t.Fatal(res.Err)
	}
}

// TestCloseReleasesOutstandingHold: Close with an eviction's hold still
// owed — the loop never ran the heal — returns promptly, and every query
// parked behind the hold, external ones included, is delivered. Without
// the release the ingress's drain would wait on the parked queries until
// its backstop, far past closeBound.
func TestCloseReleasesOutstandingHold(t *testing.T) {
	t.Parallel()
	const parked, closeBound = 4, 5 * time.Second
	m := ncf()
	ap := startOneCPU(t, Options{Ingress: &ingress.Options{TCPAddr: "127.0.0.1:0"}})
	ctrl := ap.Controller()
	killOnly(t, ap, ap.Provider().(*Fleet))

	client, err := ingress.Dial(ap.Ingress().TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	replies := make(chan error, 2*parked)
	for range parked {
		go func() {
			_, err := client.Submit(m.Name, 100)
			replies <- err
		}()
	}
	direct := make([]<-chan server.QueryResult, parked)
	for i := range direct {
		direct[i] = ctrl.Submit(m.Name, 100)
	}
	for deadline := time.Now().Add(5 * time.Second); ctrl.Stats().Waiting != 2*parked; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d waiting, want %d parked", ctrl.Stats().Waiting, 2*parked)
		}
	}

	closed := make(chan struct{})
	start := time.Now()
	go func() {
		ap.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(closeBound):
		t.Fatalf("Close with a hold outstanding did not return within %v", closeBound)
	}
	t.Logf("Close returned in %v", time.Since(start))
	for range parked {
		if err := <-replies; err != nil {
			t.Fatalf("external query got no reply: %v", err)
		}
	}
	for i, ch := range direct {
		if r := <-ch; r.Err == nil {
			t.Fatalf("direct query %d served with no instance", i)
		}
	}
	if st := ctrl.Stats(); st.Completed+st.Failed != st.Submitted || st.Waiting != 0 {
		t.Fatalf("after Close: %+v", st)
	}
}
