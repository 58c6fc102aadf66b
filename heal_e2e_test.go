package kairos

import (
	"sync"
	"testing"
	"time"
)

// TestHealKeepsQueriesAcrossLastInstanceDeath runs the configuration
// production runs — Engine.Autopilot with default AutopilotOptions over
// the in-process fleet — on a budget that buys one instance, keeps queries
// in flight and kills that instance. The eviction's hold parks the model's
// queries while the heal relaunches it, so every query completes and none
// fails; the heal restores the instance at a new address.
func TestHealKeepsQueriesAcrossLastInstanceDeath(t *testing.T) {
	t.Parallel()
	e, err := New(
		WithPool(DefaultPool()),
		WithModels("NCF"),
		WithBudget(0.2),
		WithBatchSamples(drawMix(Uniform(10, 60), 1500, 3)),
		WithSeed(7),
	)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := e.Autopilot(1, AutopilotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ap.Close()
	ap.Start()
	fleet := ap.Provider().(*Fleet)
	addrs := fleet.Addrs()
	if len(addrs) != 1 {
		t.Fatalf("budget bought %v, want one instance", ap.Current())
	}
	ctrl := ap.Controller()

	const submitters = 8
	stop := make(chan struct{})
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		failures []error
	)
	for range submitters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if res := ctrl.SubmitWait("NCF", 200); res.Err != nil {
					mu.Lock()
					failures = append(failures, res.Err)
					mu.Unlock()
				}
			}
		}()
	}
	// waitFor polls cond for up to 10 s.
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				close(stop)
				t.Fatalf("%s never happened: %+v", what, ctrl.Stats())
			}
		}
	}
	waitFor("queries in flight on the instance", func() bool {
		st := ctrl.Stats()
		return st.Completed >= 20 && len(st.Instances) == 1 && st.Instances[0].Pending > 0
	})
	if err := fleet.Kill(addrs[0]); err != nil {
		t.Fatal(err)
	}
	waitFor("the heal", func() bool {
		st := ctrl.Stats()
		return ap.Faults().Heals >= 1 && len(st.Instances) == 1 && st.Instances[0].Addr != addrs[0]
	})
	served := ctrl.Stats().Completed
	waitFor("serving on the healed instance", func() bool { return ctrl.Stats().Completed >= served+20 })
	close(stop)
	wg.Wait()
	if len(failures) > 0 {
		t.Errorf("%d queries failed across the model's last instance death, the first: %v", len(failures), failures[0])
	}
	st := ctrl.Stats()
	if f := ap.Faults(); st.Failed != 0 || st.Completed != st.Submitted || f.InstancesLost != 1 || f.Pending {
		t.Fatalf("after the heal: %+v, faults %+v", st, f)
	}
}
