package server

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"kairos/internal/cloud"
	"kairos/internal/models"
)

// TestControllerStressMultiModel hammers three model groups with
// concurrent Submit, AddInstance, RemoveInstance, and Stats under -race:
// the per-group sharding must keep the accounting invariant
// completed + failed <= submitted in every snapshot, drop no query, and
// never tear while every shard churns at once.
func TestControllerStressMultiModel(t *testing.T) {
	t.Parallel()
	names := []string{"NCF", "MT-WND", "WND"}
	groups := make(map[string]GroupSpec, len(names))
	var addrs []string
	mods := make(map[string]models.Model, len(names))
	for _, name := range names {
		m := models.MustByName(name)
		mods[name] = m
		groups[name] = GroupSpec{Policy: kairosPolicy(m, []string{cloud.G4dnXlarge.Name, cloud.R5nLarge.Name}), Predict: m.Latency}
		for _, tn := range []string{cloud.G4dnXlarge.Name, cloud.R5nLarge.Name} {
			addrs = append(addrs, startModelServer(t, m, tn, 1).Addr())
		}
	}
	ctrl, err := NewMultiController(groups, 1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	const (
		submittersPerModel = 3
		perWorker          = 25
		churnRounds        = 4
	)
	var wg sync.WaitGroup
	errc := make(chan error, len(names)*(submittersPerModel*perWorker+churnRounds)+4)

	// Churn servers are started here, on the test goroutine: t.Fatal is
	// not legal from spawned goroutines, so the churners only dial/drain.
	churnAddrs := make(map[string][]string, len(names))
	for _, name := range names {
		for i := 0; i < churnRounds; i++ {
			churnAddrs[name] = append(churnAddrs[name], startModelServer(t, mods[name], cloud.R5nLarge.Name, 1).Addr())
		}
	}

	for _, name := range names {
		for w := 0; w < submittersPerModel; w++ {
			wg.Add(1)
			go func(model string, w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					if res := ctrl.SubmitWait(model, 10+(w*perWorker+i)%150); res.Err != nil {
						errc <- fmt.Errorf("%s: %w", model, res.Err)
						return
					}
				}
			}(name, w)
		}
		// One churner per model: add an r5n, then drain one back out.
		wg.Add(1)
		go func(model string) {
			defer wg.Done()
			for _, addr := range churnAddrs[model] {
				if _, err := ctrl.AddInstance(addr); err != nil {
					errc <- err
					return
				}
				if _, err := ctrl.RemoveInstance(model, cloud.R5nLarge.Name); err != nil {
					errc <- err
					return
				}
			}
		}(name)
	}
	// Observers: per-model and aggregate accounting must never tear.
	stop := make(chan struct{})
	observerDone := make(chan struct{})
	go func() {
		defer close(observerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := ctrl.Stats()
			if st.Completed+st.Failed > st.Submitted {
				errc <- fmt.Errorf("aggregate stats tear: %+v", st)
				return
			}
			for model, ms := range st.Models {
				if ms.Completed+ms.Failed > ms.Submitted {
					errc <- fmt.Errorf("%s stats tear: %+v", model, ms)
					return
				}
			}
			ctrl.InstanceCounts()
			for _, model := range names {
				ctrl.ModelInstanceCounts(model)
			}
			ctrl.InstanceTypes()
		}
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case err := <-errc:
		close(stop)
		t.Fatal(err)
	case <-done:
	}
	close(stop)
	<-observerDone

	st := ctrl.Stats()
	if st.Failed != 0 {
		t.Fatalf("%d queries dropped during multi-model churn", st.Failed)
	}
	want := int64(len(names) * submittersPerModel * perWorker)
	if st.Submitted != want || st.Completed != want {
		t.Fatalf("accounting drifted: %+v, want %d submitted and completed", st, want)
	}
	for _, model := range names {
		ms := st.Models[model]
		if ms.Submitted != want/int64(len(names)) || ms.Completed != ms.Submitted {
			t.Fatalf("%s accounting drifted: %+v", model, ms)
		}
	}
}

// TestSubmitAfterCloseAccounting is the regression test for the
// failed-without-submitted bug: a Submit rejected because the controller
// closed (or a group lost all capacity) must count both submitted and
// failed, so completed + failed <= submitted holds on every path and the
// autopilot's ratios stay meaningful.
func TestSubmitAfterCloseAccounting(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	addrs := startCluster(t, []string{cloud.G4dnXlarge.Name}, 1)
	ctrl, err := NewController(m.Name, kairosPolicy(m, []string{cloud.G4dnXlarge.Name}), 1, m.Latency, addrs)
	if err != nil {
		t.Fatal(err)
	}
	if res := ctrl.SubmitWait(m.Name, 10); res.Err != nil {
		t.Fatal(res.Err)
	}
	ctrl.Close()
	const rejected = 3
	for i := 0; i < rejected; i++ {
		select {
		case res := <-ctrl.Submit(m.Name, 10):
			if res.Err == nil {
				t.Fatal("submit after close must fail")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("submit after close hung")
		}
	}
	st := ctrl.Stats()
	if st.Submitted != 1+rejected {
		t.Fatalf("submitted = %d, want %d: rejected submissions must be accounted", st.Submitted, 1+rejected)
	}
	if st.Failed != rejected || st.Completed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Completed+st.Failed > st.Submitted {
		t.Fatalf("invariant broken after close: %+v", st)
	}
}

// TestSubmitRejectsOutOfRangeBatch: an unvalidated batch must fail the
// query with an error reply — not reach the scheduler, whose latency
// predictor panics outside the calibrated range and would take down the
// whole process with it. The rejection is accounted like any failure.
func TestSubmitRejectsOutOfRangeBatch(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	addrs := startCluster(t, []string{cloud.G4dnXlarge.Name}, 1)
	ctrl, err := NewController(m.Name, kairosPolicy(m, []string{cloud.G4dnXlarge.Name}), 1, m.Latency, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	for _, batch := range []int{0, -5, models.MaxBatch + 1} {
		select {
		case res := <-ctrl.Submit(m.Name, batch):
			if res.Err == nil {
				t.Fatalf("batch %d must fail", batch)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("batch %d submit hung", batch)
		}
	}
	// The scheduler survived; a valid query still serves.
	if res := ctrl.SubmitWait(m.Name, 100); res.Err != nil {
		t.Fatal(res.Err)
	}
	st := ctrl.Stats()
	if st.Submitted != 4 || st.Failed != 3 || st.Completed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
