package server

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"kairos/internal/cloud"
	"kairos/internal/models"
)

// TestOnInstanceDownFiresOnEviction: the instance-down callback must
// report every eviction with the model, type, address, and cause, and
// must not fire for an orderly RemoveInstance.
func TestOnInstanceDownFiresOnEviction(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	fakeAddr, die := fakeInstance(t, cloud.G4dnXlarge.Name, m.Name)
	healthy := startServer(t, cloud.R5nLarge.Name, 1)
	types := []string{cloud.G4dnXlarge.Name, cloud.R5nLarge.Name}
	ctrl, err := NewController(m.Name, kairosPolicy(m, types), 1, m.Latency, []string{fakeAddr, healthy.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	type downEvent struct {
		model, typeName, addr string
		cause                 error
	}
	events := make(chan downEvent, 4)
	ctrl.SetOnInstanceDown(func(model, typeName, addr string, cause error) {
		events <- downEvent{model, typeName, addr, cause}
	})

	// An orderly removal of the healthy instance must not raise a fault.
	if _, err := ctrl.RemoveInstance(m.Name, cloud.R5nLarge.Name); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-events:
		t.Fatalf("orderly RemoveInstance raised a down event: %+v", ev)
	case <-time.After(50 * time.Millisecond):
	}

	close(die) // crash
	select {
	case ev := <-events:
		if ev.model != m.Name || ev.typeName != cloud.G4dnXlarge.Name || ev.addr != fakeAddr {
			t.Fatalf("down event = %+v", ev)
		}
		if ev.cause == nil {
			t.Fatal("down event must carry the cause")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("eviction never reached the instance-down callback")
	}
}

// TestEmptyHoldParksAndRescues: with an empty-hold window, a group that
// loses its only instance parks in-flight and new queries instead of
// failing them, and AddInstance within the window rescues every one.
func TestEmptyHoldParksAndRescues(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	fakeAddr, die := fakeInstance(t, cloud.G4dnXlarge.Name, m.Name)
	ctrl, err := NewController(m.Name, kairosPolicy(m, []string{cloud.G4dnXlarge.Name, cloud.R5nLarge.Name}), 1, m.Latency, []string{fakeAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	ctrl.SetEmptyHold(10 * time.Second)

	// Queries dispatch to the fake instance and wedge there.
	var chans []<-chan QueryResult
	for i := 0; i < 3; i++ {
		chans = append(chans, ctrl.Submit(m.Name, 100))
	}
	waitPending(t, ctrl)
	close(die) // the only instance crashes; the group is empty

	deadline := time.Now().Add(5 * time.Second)
	for len(ctrl.InstanceTypes()) != 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := ctrl.InstanceTypes(); len(got) != 0 {
		t.Fatalf("dead instance not evicted: fleet %v", got)
	}

	// The group is capacity-less but held: new submissions park too.
	chans = append(chans, ctrl.Submit(m.Name, 50))
	select {
	case r := <-chans[0]:
		t.Fatalf("held query delivered during the hold window: %+v", r)
	case <-time.After(50 * time.Millisecond):
	}

	// Capacity returns within the window: every held query completes.
	replacement := startServer(t, cloud.R5nLarge.Name, 1)
	if _, err := ctrl.AddInstance(replacement.Addr()); err != nil {
		t.Fatal(err)
	}
	for i, ch := range chans {
		select {
		case r := <-ch:
			if r.Err != nil {
				t.Fatalf("held query %d dropped: %v", i, r.Err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("held query %d never rescued", i)
		}
	}
	s := ctrl.Stats()
	if s.Failed != 0 || s.Completed != int64(len(chans)) {
		t.Fatalf("stats = %+v", s)
	}
}

// TestEmptyHoldExpiryFailsParkedQueries: the hold window is a bound, not
// a hang — if capacity never returns, the parked queries fail once the
// timer fires.
func TestEmptyHoldExpiryFailsParkedQueries(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	fakeAddr, die := fakeInstance(t, cloud.G4dnXlarge.Name, m.Name)
	ctrl, err := NewController(m.Name, kairosPolicy(m, []string{cloud.G4dnXlarge.Name}), 1, m.Latency, []string{fakeAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	ctrl.SetEmptyHold(150 * time.Millisecond)

	ch := ctrl.Submit(m.Name, 100)
	waitPending(t, ctrl)
	close(die)

	select {
	case r := <-ch:
		if r.Err == nil {
			t.Fatal("query completed with no instance serving it")
		}
		if !strings.Contains(r.Err.Error(), "hold window expired") {
			t.Fatalf("unexpected failure cause: %v", r.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("hold window never expired")
	}
	s := ctrl.Stats()
	if s.Failed != 1 || s.Completed != 0 || s.Waiting != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestEmptyHoldZeroKeepsFailFast: without a hold window (the default),
// submissions to a capacity-less group fail immediately, as before.
func TestEmptyHoldZeroKeepsFailFast(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	fakeAddr, die := fakeInstance(t, cloud.G4dnXlarge.Name, m.Name)
	ctrl, err := NewController(m.Name, kairosPolicy(m, []string{cloud.G4dnXlarge.Name}), 1, m.Latency, []string{fakeAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	close(die)
	deadline := time.Now().Add(5 * time.Second)
	for len(ctrl.InstanceTypes()) != 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	select {
	case r := <-ctrl.Submit(m.Name, 100):
		if r.Err == nil {
			t.Fatal("capacity-less submit must fail fast by default")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("capacity-less submit hung with no hold window configured")
	}
}

// TestRedispatchPreservesCompletedPlusFailedInvariant hammers a crashing
// instance while snapshotting stats: in every snapshot completed+failed
// must not exceed submitted, and after the crash every admitted query
// must still be delivered exactly once.
func TestRedispatchPreservesCompletedPlusFailedInvariant(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	fakeAddr, die := fakeInstance(t, cloud.G4dnXlarge.Name, m.Name)
	healthy := startServer(t, cloud.R5nLarge.Name, 1)
	types := []string{cloud.G4dnXlarge.Name, cloud.R5nLarge.Name}
	ctrl, err := NewController(m.Name, kairosPolicy(m, types), 1, m.Latency, []string{fakeAddr, healthy.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	stop := make(chan struct{})
	var snapErr error
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := ctrl.Stats()
			if s.Completed+s.Failed > s.Submitted {
				snapErr = &statErr{s}
				return
			}
		}
	}()

	const n = 64
	var wg sync.WaitGroup
	results := make(chan QueryResult, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(batch int) {
			defer wg.Done()
			results <- ctrl.SubmitWait(m.Name, batch)
		}(1 + i%900)
	}
	time.Sleep(10 * time.Millisecond)
	close(die)
	wg.Wait()
	close(stop)
	snapWG.Wait()
	if snapErr != nil {
		t.Fatalf("invariant violated: %v", snapErr)
	}
	close(results)
	delivered := 0
	for r := range results {
		delivered++
		if r.Err != nil {
			t.Fatalf("admitted query dropped: %v", r.Err)
		}
	}
	if delivered != n {
		t.Fatalf("delivered %d of %d", delivered, n)
	}
}

type statErr struct{ s Stats }

func (e *statErr) Error() string { return "completed+failed > submitted" }

// waitPending blocks until some instance reports pending queries.
func waitPending(t *testing.T, ctrl *Controller) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s := ctrl.Stats()
		for _, inst := range s.Instances {
			if inst.Pending > 0 {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("no query ever dispatched")
}

// TestAddInstanceBoundsSilentListener: a listener that accepts and never
// sends its banner must fail AddInstance within the handshake bound, not
// hang it (and the autopilot actuator above it) forever — and the bound
// must be lifted once a handshake completes, or every healthy instance
// would be evicted on its first idle stretch.
func TestAddInstanceBoundsSilentListener(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	addrs := startCluster(t, []string{cloud.G4dnXlarge.Name}, 1)
	ctrl, err := NewController(m.Name, kairosPolicy(m, []string{cloud.G4dnXlarge.Name}), 1, m.Latency, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	ln := listenLocal(t)
	release := make(chan struct{})
	defer close(release)
	go func() {
		if conn, err := ln.Accept(); err == nil {
			<-release // hold the connection open, say nothing
			conn.Close()
		}
	}()
	done := make(chan error, 1)
	go func() {
		_, err := ctrl.AddInstance(ln.Addr().String())
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "handshake") {
			t.Fatalf("silent listener joined the fleet: %v", err)
		}
	case <-time.After(handshakeTimeout + 5*time.Second):
		t.Fatal("AddInstance hung on a listener that never speaks")
	}
	// More than handshakeTimeout has passed since the healthy instance
	// shook hands: it must still be a member and still serve.
	if res := ctrl.SubmitWait(m.Name, 10); res.Err != nil {
		t.Fatalf("healthy instance lost after the handshake bound elapsed: %v", res.Err)
	}
	if got := ctrl.InstanceTypes(); len(got) != 1 {
		t.Fatalf("fleet = %v", got)
	}
}

// TestNewMultiControllerBoundsSilentListeners: the constructor dials its
// whole fleet at once, so however many listeners accept and never speak
// they cost it one handshake bound between them, the error names the first
// bad address in address order (not the first to time out), and a fleet
// that was never returned leaves nothing behind: every healthy server sees
// its connection closed and no reader goroutine was started.
func TestNewMultiControllerBoundsSilentListeners(t *testing.T) {
	m := models.MustByName("NCF")
	release := make(chan struct{})
	defer close(release)
	var addrs, silent []string
	var healthy []*InstanceServer
	for i := 0; i < 9; i++ {
		if i%3 != 1 {
			s := startServer(t, cloud.G4dnXlarge.Name, 1)
			healthy = append(healthy, s)
			addrs = append(addrs, s.Addr())
			continue
		}
		ln := listenLocal(t)
		go func() {
			if conn, err := ln.Accept(); err == nil {
				<-release // hold the connection open, say nothing
				conn.Close()
			}
		}()
		silent = append(silent, ln.Addr().String())
		addrs = append(addrs, ln.Addr().String())
	}
	idle := runtime.NumGoroutine()

	start := time.Now()
	ctrl, err := NewController(m.Name, kairosPolicy(m, []string{cloud.G4dnXlarge.Name}), 1, m.Latency, addrs)
	if err == nil {
		ctrl.Close()
		t.Fatal("a fleet with silent listeners came up")
	}
	if took := time.Since(start); took >= 2*handshakeTimeout {
		t.Fatalf("three silent listeners cost the constructor %v, want one handshake bound (%v)", took, handshakeTimeout)
	}
	if !strings.Contains(err.Error(), "handshake with "+silent[0]) {
		t.Fatalf("error %q does not name the first silent listener in address order, %s", err, silent[0])
	}
	// The servers notice the close on their own goroutines: wait for that,
	// bounded as a diagnostic, not a pace.
	deadline := time.Now().Add(5 * time.Second)
	for _, s := range healthy {
		for {
			s.tracker.mu.Lock()
			open := len(s.tracker.conns)
			s.tracker.mu.Unlock()
			if open == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("healthy server %s still holds %d connection(s) of the failed fleet", s.Addr(), open)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for runtime.NumGoroutine() > idle {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed constructor, %d before it", runtime.NumGoroutine(), idle)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFleetOrderIsAddressOrder: the fleet is dialed at once and the
// banners arrive in reverse address order, yet members are listed — and
// indexed by the policy — in the order the addresses were given.
func TestFleetOrderIsAddressOrder(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	g, r := cloud.G4dnXlarge.Name, cloud.R5nLarge.Name
	types := []string{g, r}
	want := []string{g, r, r, g, r, r} // not its own reverse
	for run := 0; run < 20; run++ {
		var addrs []string
		for i, tn := range want {
			addr, die := slowFakeInstance(t, time.Duration(len(want)-1-i)*2*time.Millisecond, tn, m.Name)
			defer close(die)
			addrs = append(addrs, addr)
		}
		ctrl, err := NewController(m.Name, kairosPolicy(m, types), 1, m.Latency, addrs)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, in := range ctrl.Stats().Instances {
			got = append(got, in.Addr)
		}
		if types := ctrl.InstanceTypes(); !slices.Equal(got, addrs) || !slices.Equal(types, want) {
			t.Fatalf("run %d: fleet %v %v, want address order %v %v", run, got, types, addrs, want)
		}
		ctrl.Close()
	}
}
