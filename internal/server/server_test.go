package server

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"kairos/internal/cloud"
	"kairos/internal/core"
	"kairos/internal/models"
	"kairos/internal/predictor"
	"kairos/internal/sim"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Hello{TypeName: "g4dn.xlarge", Model: "NCF", Proto: ProtoSession}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out Hello
	if err := ReadFrame(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
}

func TestFrameRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	big := struct {
		Payload string `json:"payload"`
	}{Payload: strings.Repeat("x", MaxFrame+1)}
	if err := WriteFrame(&buf, big); err == nil {
		t.Fatal("expected write error for oversized frame")
	}
	// A forged oversized header must be rejected on read.
	buf.Reset()
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	var out Hello
	if err := ReadFrame(&buf, &out); err == nil {
		t.Fatal("expected read error for oversized header")
	}
}

func TestFrameRejectsGarbage(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 2})
	buf.WriteString("{{")
	var out Hello
	if err := ReadFrame(&buf, &out); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestNewInstanceServerValidation(t *testing.T) {
	m := models.MustByName("NCF")
	if _, err := NewInstanceServer("", m, 1); err == nil {
		t.Fatal("empty type must error")
	}
	if _, err := NewInstanceServer("p3.2xlarge", m, 1); err == nil {
		t.Fatal("unknown curve must error")
	}
	if _, err := NewInstanceServer(cloud.G4dnXlarge.Name, m, -1); err == nil {
		t.Fatal("negative scale must error")
	}
}

// startCluster boots instance servers for NCF (millisecond-scale real
// latencies) and returns their addresses plus a cleanup function.
func startCluster(t *testing.T, types []string, timeScale float64) []string {
	t.Helper()
	m := models.MustByName("NCF")
	addrs := make([]string, len(types))
	for i, tn := range types {
		s, err := NewInstanceServer(tn, m, timeScale)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		addrs[i] = s.Addr()
	}
	return addrs
}

func kairosPolicy(m models.Model, types []string) *core.Distributor {
	return core.NewDistributor(core.DistributorOptions{
		QoS:       m.QoS,
		BaseType:  cloud.G4dnXlarge.Name,
		Predictor: predictor.Warmed(m.Latency, types, []int{1, 500, 1000}),
	})
}

func TestEndToEndSingleQuery(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	types := []string{cloud.G4dnXlarge.Name}
	addrs := startCluster(t, types, 1)
	ctrl, err := NewController(m.Name, kairosPolicy(m, types), 1, m.Latency, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	res := ctrl.SubmitWait(m.Name, 100)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Instance != cloud.G4dnXlarge.Name {
		t.Fatalf("served by %s", res.Instance)
	}
	// True service is 1.35ms; end-to-end must be at least that and within
	// a loose multiple (scheduler + loopback overhead).
	want := m.Latency(types[0], 100)
	if res.LatencyMS < want || res.LatencyMS > want+50 {
		t.Fatalf("latency %.2fms, want >= %.2fms and < %.2fms", res.LatencyMS, want, want+50)
	}
}

func TestEndToEndHeterogeneousPlacement(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	types := []string{cloud.G4dnXlarge.Name, cloud.R5nLarge.Name}
	addrs := startCluster(t, types, 1)
	ctrl, err := NewController(m.Name, kairosPolicy(m, types), 1, m.Latency, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	if got := ctrl.InstanceTypes(); len(got) != 2 {
		t.Fatalf("instance types = %v", got)
	}
	// A max-size query violates QoS on the idle CPU; it must be served by
	// the GPU even with both idle.
	res := ctrl.SubmitWait(m.Name, 1000)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Instance != cloud.G4dnXlarge.Name {
		t.Fatalf("max-size query served by %s, want the base GPU", res.Instance)
	}
	// A tiny query prefers the cheap CPU (weighted matching).
	res = ctrl.SubmitWait(m.Name, 10)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Instance != cloud.R5nLarge.Name {
		t.Fatalf("tiny query served by %s, want the CPU", res.Instance)
	}
}

func TestEndToEndConcurrentLoad(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	types := []string{cloud.G4dnXlarge.Name, cloud.R5nLarge.Name, cloud.R5nLarge.Name}
	// Dilate time 5x so OS timer granularity is small relative to NCF's
	// millisecond latencies.
	const scale = 5.0
	addrs := startCluster(t, types, scale)
	ctrl, err := NewController(m.Name, kairosPolicy(m, types), scale, m.Latency, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	// ~1 query per model-millisecond against ~1.5/ms of capacity.
	const n = 60
	var wg sync.WaitGroup
	results := make([]QueryResult, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			batch := 20 + (i%7)*25 // up to 170, feasible on every type
			results[i] = ctrl.SubmitWait(m.Name, batch)
		}(i)
		time.Sleep(scale * time.Millisecond)
	}
	wg.Wait()
	violations := 0
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("query %d failed: %v", i, r.Err)
		}
		if r.LatencyMS > m.QoS {
			violations++
		}
	}
	// Moderate load on three instances: the vast majority must meet QoS.
	if violations > n/6 {
		t.Fatalf("%d/%d QoS violations under moderate load", violations, n)
	}
}

func TestControllerValidation(t *testing.T) {
	m := models.MustByName("NCF")
	if _, err := NewController(m.Name, nil, 1, m.Latency, []string{"x"}); err == nil {
		t.Fatal("nil policy must error")
	}
	pol := kairosPolicy(m, []string{cloud.G4dnXlarge.Name})
	if _, err := NewController(m.Name, pol, 1, m.Latency, nil); err == nil {
		t.Fatal("no addresses must error")
	}
	if _, err := NewController(m.Name, pol, 1, m.Latency, []string{"127.0.0.1:1"}); err == nil {
		t.Fatal("dial failure must error")
	}
}

func TestControllerCloseFailsOutstanding(t *testing.T) {
	t.Parallel()
	m := models.MustByName("RM2") // slow model: queries outlast the close
	types := []string{cloud.G4dnXlarge.Name}
	s, err := NewInstanceServer(types[0], m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctrl, err := NewController(m.Name, kairosPolicy(m, types), 1, m.Latency, []string{s.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	// Saturate: several slow queries so some are still waiting.
	var chans []<-chan QueryResult
	for i := 0; i < 5; i++ {
		chans = append(chans, ctrl.Submit(m.Name, 1000))
	}
	time.Sleep(10 * time.Millisecond)
	ctrl.Close()
	failures := 0
	for _, ch := range chans {
		select {
		case r := <-ch:
			if r.Err != nil {
				failures++
			}
		case <-time.After(2 * time.Second):
			t.Fatal("query neither served nor failed after close")
		}
	}
	if failures == 0 {
		t.Fatal("expected at least one failed outstanding query")
	}
}

// capturePolicy records the QueryViews it is shown and assigns FCFS.
type capturePolicy struct {
	mu  sync.Mutex
	ids map[int]bool
}

func (p *capturePolicy) Name() string { return "capture" }

func (p *capturePolicy) Assign(_ float64, waiting []sim.QueryView, instances []sim.InstanceView) []sim.Assignment {
	p.mu.Lock()
	for _, q := range waiting {
		p.ids[q.ID] = true
	}
	p.mu.Unlock()
	var out []sim.Assignment
	used := map[int]bool{}
	for _, q := range waiting {
		for _, in := range instances {
			if in.Backlog() == 0 && !used[in.Index] {
				used[in.Index] = true
				out = append(out, sim.Assignment{Query: q.Index, Instance: in.Index})
				break
			}
		}
	}
	return out
}

// TestControllerExposesStableQueryIDs guards the contract partitioned
// policies rely on: every QueryView the controller hands a policy carries
// the query's distinct arrival ID (queries hash to partitions by ID).
func TestControllerExposesStableQueryIDs(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	types := []string{cloud.G4dnXlarge.Name}
	addrs := startCluster(t, types, 1)
	policy := &capturePolicy{ids: map[int]bool{}}
	ctrl, err := NewController(m.Name, policy, 1, m.Latency, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	const n = 4
	for i := 0; i < n; i++ {
		if res := ctrl.SubmitWait(m.Name, 10); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	policy.mu.Lock()
	defer policy.mu.Unlock()
	if len(policy.ids) != n {
		// A controller that leaves ID zero-valued collapses this to one
		// entry, which is how partitioned policies degenerate to partition 0.
		t.Fatalf("saw %d distinct query IDs over %d queries: %v", len(policy.ids), n, policy.ids)
	}
}

// startServer boots one NCF instance server and returns it plus its addr.
func startServer(t testing.TB, typeName string, timeScale float64) *InstanceServer {
	t.Helper()
	m := models.MustByName("NCF")
	s, err := NewInstanceServer(typeName, m, timeScale)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestControllerAddInstanceJoinsFleet(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	types := []string{cloud.G4dnXlarge.Name}
	addrs := startCluster(t, types, 1)
	ctrl, err := NewController(m.Name, kairosPolicy(m, []string{cloud.G4dnXlarge.Name, cloud.R5nLarge.Name}), 1, m.Latency, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	extra := startServer(t, cloud.R5nLarge.Name, 1)
	typeName, err := ctrl.AddInstance(extra.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if typeName != cloud.R5nLarge.Name {
		t.Fatalf("handshake announced %s", typeName)
	}
	if got := ctrl.InstanceTypes(); len(got) != 2 {
		t.Fatalf("fleet = %v after add", got)
	}
	// A tiny query prefers the cheap CPU (weighted matching) — the added
	// instance really serves.
	res := ctrl.SubmitWait(m.Name, 10)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Instance != cloud.R5nLarge.Name {
		t.Fatalf("tiny query served by %s, want the added CPU", res.Instance)
	}
	counts := ctrl.InstanceCounts()
	if counts[cloud.G4dnXlarge.Name] != 1 || counts[cloud.R5nLarge.Name] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestControllerRemoveInstanceDrains(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	// Two GPUs; dilate time so the backlog outlives the removal call.
	const scale = 20.0
	types := []string{cloud.G4dnXlarge.Name, cloud.G4dnXlarge.Name}
	addrs := startCluster(t, types, scale)
	ctrl, err := NewController(m.Name, kairosPolicy(m, types), scale, m.Latency, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	// Load both instances with slow queries, then remove one mid-flight.
	var chans []<-chan QueryResult
	for i := 0; i < 6; i++ {
		chans = append(chans, ctrl.Submit(m.Name, 1000))
	}
	time.Sleep(20 * time.Millisecond)
	removedAddr, err := ctrl.RemoveInstance(m.Name, cloud.G4dnXlarge.Name)
	if err != nil {
		t.Fatal(err)
	}
	if removedAddr != addrs[0] && removedAddr != addrs[1] {
		t.Fatalf("removed addr %s not in fleet %v", removedAddr, addrs)
	}
	if got := ctrl.InstanceTypes(); len(got) != 1 {
		t.Fatalf("fleet = %v after remove", got)
	}
	// Zero dropped queries: every submission completes without error.
	for i, ch := range chans {
		select {
		case r := <-ch:
			if r.Err != nil {
				t.Fatalf("query %d dropped during drain: %v", i, r.Err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("query %d stuck after drain", i)
		}
	}
	// Removing the last instance of a type that is gone must error.
	if _, err := ctrl.RemoveInstance(m.Name, "nope"); err == nil {
		t.Fatal("removing an unknown type must error")
	}
}

func TestControllerStatsAndOnComplete(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	types := []string{cloud.G4dnXlarge.Name}
	addrs := startCluster(t, types, 1)
	ctrl, err := NewController(m.Name, kairosPolicy(m, types), 1, m.Latency, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	var mu sync.Mutex
	completions := 0
	batches := 0
	ctrl.SetOnComplete(func(model string, batch int, res QueryResult) {
		mu.Lock()
		defer mu.Unlock()
		completions++
		batches += batch
		if res.Batch != batch {
			t.Errorf("callback batch mismatch: %d vs %d", res.Batch, batch)
		}
	})
	const n = 5
	for i := 0; i < n; i++ {
		if res := ctrl.SubmitWait(m.Name, 100); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	mu.Lock()
	if completions != n || batches != n*100 {
		t.Fatalf("callback saw %d completions totalling %d", completions, batches)
	}
	mu.Unlock()

	s := ctrl.Stats()
	if s.Submitted != n || s.Completed != n || s.Failed != 0 || s.Waiting != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if len(s.Instances) != 1 {
		t.Fatalf("instance stats = %+v", s.Instances)
	}
	inst := s.Instances[0]
	if inst.TypeName != cloud.G4dnXlarge.Name || inst.Dispatched != n || inst.Completed != n || inst.Pending != 0 {
		t.Fatalf("instance stats = %+v", inst)
	}
	// Five completions of the 1.35ms batch-100 service: busy time is the
	// sum of ground-truth service times.
	want := float64(n) * m.Latency(cloud.G4dnXlarge.Name, 100)
	if inst.BusyMS < want*0.99 || inst.BusyMS > want*1.01 {
		t.Fatalf("busy %.3fms, want ~%.3fms", inst.BusyMS, want)
	}
	if inst.Addr == "" {
		t.Fatal("instance stats must carry the dialed address")
	}
}

// TestControllerEvictsDeadInstance: when an instance's connection dies
// outside Close, its in-flight queries must be requeued and redispatched
// to surviving capacity — an instance crash drops no admitted query — and
// the instance must leave the fleet so drains never wait on a ghost.
func TestControllerEvictsDeadInstance(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")

	// A fake instance: handshakes, swallows requests, never replies, and
	// drops its connection on demand.
	fakeAddr, die := fakeInstance(t, cloud.G4dnXlarge.Name, m.Name)

	healthy := startServer(t, cloud.R5nLarge.Name, 1)
	types := []string{cloud.G4dnXlarge.Name, cloud.R5nLarge.Name}
	ctrl, err := NewController(m.Name, kairosPolicy(m, types), 1, m.Latency, []string{fakeAddr, healthy.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	// Large queries route to the (fake) GPU and stick there unanswered.
	var chans []<-chan QueryResult
	for i := 0; i < 3; i++ {
		chans = append(chans, ctrl.Submit(m.Name, 1000))
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s := ctrl.Stats(); s.Instances[0].Pending > 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(die) // the instance crashes mid-flight

	// Every stranded query must complete via the surviving CPU instance:
	// eviction requeues, the next round redispatches.
	for i, ch := range chans {
		select {
		case r := <-ch:
			if r.Err != nil {
				t.Fatalf("query %d dropped by the crash: %v", i, r.Err)
			}
			if r.Instance != cloud.R5nLarge.Name {
				t.Fatalf("query %d served by %q, want the survivor %q", i, r.Instance, cloud.R5nLarge.Name)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("query %d hung after the instance died", i)
		}
	}
	deadline = time.Now().Add(5 * time.Second)
	for len(ctrl.InstanceTypes()) != 1 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := ctrl.InstanceTypes(); len(got) != 1 || got[0] != cloud.R5nLarge.Name {
		t.Fatalf("dead instance not evicted: fleet %v", got)
	}
	// The survivor still serves, and removing the dead type now errors
	// instead of draining a ghost.
	if res := ctrl.SubmitWait(m.Name, 100); res.Err != nil {
		t.Fatal(res.Err)
	}
	if _, err := ctrl.RemoveInstance(m.Name, cloud.G4dnXlarge.Name); err == nil {
		t.Fatal("removing the evicted type must error")
	}
}

func TestSubmitAfterCloseFailsFast(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	types := []string{cloud.G4dnXlarge.Name}
	addrs := startCluster(t, types, 1)
	ctrl, err := NewController(m.Name, kairosPolicy(m, types), 1, m.Latency, addrs)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Close()
	select {
	case res := <-ctrl.Submit(m.Name, 10):
		if res.Err == nil {
			t.Fatal("submit after close must fail")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("submit after close hung")
	}
}

// TestControllerRejectsWrongModelBanner: an instance announcing a model
// the controller does not serve must be rejected at dial time, both in the
// constructor and in AddInstance — never silently accepted into a fleet
// that would route another model's queries to it.
func TestControllerRejectsWrongModelBanner(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	wrong := models.MustByName("RM2")
	s, err := NewInstanceServer(cloud.G4dnXlarge.Name, wrong, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, err := NewController(m.Name, kairosPolicy(m, []string{cloud.G4dnXlarge.Name}), 1, m.Latency, []string{s.Addr()}); err == nil {
		t.Fatal("constructor must reject a wrong-model banner")
	} else if !strings.Contains(err.Error(), wrong.Name) || !strings.Contains(err.Error(), m.Name) {
		t.Fatalf("rejection must name both models: %v", err)
	}

	addrs := startCluster(t, []string{cloud.G4dnXlarge.Name}, 1)
	ctrl, err := NewController(m.Name, kairosPolicy(m, []string{cloud.G4dnXlarge.Name}), 1, m.Latency, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	if _, err := ctrl.AddInstance(s.Addr()); err == nil {
		t.Fatal("AddInstance must reject a wrong-model banner")
	}
	if got := len(ctrl.InstanceTypes()); got != 1 {
		t.Fatalf("rejected instance leaked into the fleet: %d instances", got)
	}
}

// TestInstanceServerRejectsWrongModelRequest: the wire-level guard — a
// request tagged with another model's name gets an error reply, not a
// silently-served query.
func TestInstanceServerRejectsWrongModelRequest(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	s := startServer(t, cloud.G4dnXlarge.Name, 1)
	p := dialPeer(t, s.Addr())
	if p.hello.Model != m.Name {
		t.Fatalf("banner announces %q", p.hello.Model)
	}
	p.send(t, Request{ID: 1, Model: "RM2", Batch: 10})
	reply, err := p.recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Err == "" || !strings.Contains(reply.Err, m.Name) {
		t.Fatalf("wrong-model request must error, got %+v", reply)
	}
	// A correctly-tagged request still serves.
	p.send(t, Request{ID: 2, Model: m.Name, Batch: 10})
	ok, err := p.recv()
	if err != nil {
		t.Fatal(err)
	}
	if ok.Err != "" || ok.ServiceMS <= 0 {
		t.Fatalf("tagged request failed: %+v", ok)
	}
}

// startModelServer boots one instance server for an explicit model.
func startModelServer(t *testing.T, m models.Model, typeName string, timeScale float64) *InstanceServer {
	t.Helper()
	s, err := NewInstanceServer(typeName, m, timeScale)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestMultiModelRouting: two models share one controller; each query lands
// only on its own model's instances, stats are tagged per model, and a
// submission for an unknown model fails fast.
func TestMultiModelRouting(t *testing.T) {
	t.Parallel()
	ncf := models.MustByName("NCF")
	wnd := models.MustByName("MT-WND")
	sN := startModelServer(t, ncf, cloud.R5nLarge.Name, 1)
	sW := startModelServer(t, wnd, cloud.G4dnXlarge.Name, 1)
	groups := map[string]GroupSpec{
		ncf.Name: {Policy: kairosPolicy(ncf, []string{cloud.R5nLarge.Name}), Predict: ncf.Latency},
		wnd.Name: {Policy: kairosPolicy(wnd, []string{cloud.G4dnXlarge.Name}), Predict: wnd.Latency},
	}
	ctrl, err := NewMultiController(groups, 1, []string{sN.Addr(), sW.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	if got := ctrl.Models(); len(got) != 2 || got[0] != wnd.Name || got[1] != ncf.Name {
		t.Fatalf("models = %v", got)
	}

	const n = 4
	for i := 0; i < n; i++ {
		if res := ctrl.SubmitWait(ncf.Name, 50); res.Err != nil {
			t.Fatal(res.Err)
		} else if res.Instance != cloud.R5nLarge.Name || res.Model != ncf.Name {
			t.Fatalf("NCF query served by %s as %s", res.Instance, res.Model)
		}
		if res := ctrl.SubmitWait(wnd.Name, 50); res.Err != nil {
			t.Fatal(res.Err)
		} else if res.Instance != cloud.G4dnXlarge.Name || res.Model != wnd.Name {
			t.Fatalf("MT-WND query served by %s as %s", res.Instance, res.Model)
		}
	}

	st := ctrl.Stats()
	if st.Submitted != 2*n || st.Completed != 2*n || st.Failed != 0 {
		t.Fatalf("aggregate stats = %+v", st)
	}
	for _, name := range []string{ncf.Name, wnd.Name} {
		ms, ok := st.Models[name]
		if !ok || ms.Submitted != n || ms.Completed != n || len(ms.Instances) != 1 {
			t.Fatalf("model %s stats = %+v", name, ms)
		}
		if ms.Instances[0].Model != name || ms.Instances[0].Completed != n {
			t.Fatalf("model %s instance stats = %+v", name, ms.Instances[0])
		}
	}
	if got := ctrl.ModelInstanceCounts(ncf.Name); got[cloud.R5nLarge.Name] != 1 || len(got) != 1 {
		t.Fatalf("NCF counts = %v", got)
	}

	select {
	case res := <-ctrl.Submit("no-such-model", 10):
		if res.Err == nil {
			t.Fatal("unknown model must fail")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("unknown-model submit hung")
	}
	// Removing a type under the wrong model errors instead of draining
	// another model's instance.
	if _, err := ctrl.RemoveInstance(ncf.Name, cloud.G4dnXlarge.Name); err == nil {
		t.Fatal("cross-model removal must error")
	}
}

// TestControllerConcurrentReconfiguration races Submit, Stats,
// AddInstance, and RemoveInstance against live traffic under -race: the
// accounting must stay consistent and no query may be dropped while the
// fleet churns.
func TestControllerConcurrentReconfiguration(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	types := []string{cloud.G4dnXlarge.Name, cloud.R5nLarge.Name}
	addrs := startCluster(t, types, 1)
	ctrl, err := NewController(m.Name, kairosPolicy(m, types), 1, m.Latency, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	const (
		submitters = 4
		perWorker  = 30
	)
	var wg sync.WaitGroup
	errc := make(chan error, submitters*perWorker+4)

	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if res := ctrl.SubmitWait(m.Name, 10+(w*perWorker+i)%150); res.Err != nil {
					errc <- res.Err
					return
				}
			}
		}(w)
	}
	// Churn: repeatedly add an r5n and drain one back out while serving.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			extra := startModelServer(t, m, cloud.R5nLarge.Name, 1)
			if _, err := ctrl.AddInstance(extra.Addr()); err != nil {
				errc <- err
				return
			}
			if _, err := ctrl.RemoveInstance(m.Name, cloud.R5nLarge.Name); err != nil {
				errc <- err
				return
			}
		}
	}()
	// Observer: stats and counts must never tear while the fleet churns.
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
				errc <- fmt.Errorf("stats tear: %+v", st)
				return
			}
			ctrl.InstanceCounts()
			ctrl.ModelInstanceCounts(m.Name)
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
		t.Fatalf("%d queries dropped during concurrent reconfiguration", st.Failed)
	}
	if st.Submitted != submitters*perWorker || st.Completed != st.Submitted {
		t.Fatalf("accounting drifted: %+v", st)
	}
}

// TestSubmitToEmptyGroupFailsFast: a model whose group has no serving
// capacity (starved by the fleet planner, or its last instance drained)
// must fail submissions immediately — and orphaned waiting queries must
// fail when the last instance leaves — instead of hanging forever.
func TestSubmitToEmptyGroupFailsFast(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	// An FCFS-to-idle policy: dispatches at most one query per instance,
	// so a backlog parks in the central queue.
	policy := &capturePolicy{ids: map[int]bool{}}
	// Slow everything down so the backlog outlives the removal.
	const scale = 20.0
	addrs := startCluster(t, []string{cloud.G4dnXlarge.Name}, scale)
	ctrl, err := NewController(m.Name, policy, scale, m.Latency, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	// One query in flight, two parked in the central queue.
	chans := []<-chan QueryResult{
		ctrl.Submit(m.Name, 1000),
		ctrl.Submit(m.Name, 1000),
		ctrl.Submit(m.Name, 1000),
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st := ctrl.Stats(); st.Instances[0].Pending > 0 && st.Waiting > 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Removing the only instance drains the in-flight query and fails the
	// parked ones — nothing hangs.
	if _, err := ctrl.RemoveInstance(m.Name, cloud.G4dnXlarge.Name); err != nil {
		t.Fatal(err)
	}
	completed, failed := 0, 0
	for i, ch := range chans {
		select {
		case res := <-ch:
			if res.Err != nil {
				if !strings.Contains(res.Err.Error(), "no serving capacity") {
					t.Fatalf("query %d failed with %v", i, res.Err)
				}
				failed++
			} else {
				completed++
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("query %d hung after the last instance left", i)
		}
	}
	if completed != 1 || failed != 2 {
		t.Fatalf("drain completed %d and failed %d, want 1 and 2", completed, failed)
	}

	// New submissions to the empty group fail fast.
	select {
	case res := <-ctrl.Submit(m.Name, 10):
		if res.Err == nil || !strings.Contains(res.Err.Error(), "no serving capacity") {
			t.Fatalf("empty-group submit returned %v", res.Err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("empty-group submit hung")
	}
	// Capacity restores service.
	extra := startModelServer(t, m, cloud.R5nLarge.Name, scale)
	if _, err := ctrl.AddInstance(extra.Addr()); err != nil {
		t.Fatal(err)
	}
	if res := ctrl.SubmitWait(m.Name, 10); res.Err != nil {
		t.Fatal(res.Err)
	}
}
