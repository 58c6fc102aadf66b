package kairos

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"kairos/internal/soak"
)

// spotInstanceAddr returns one live instance whose type is a spot
// variant, preferring the given model; the empty string when none exists.
func spotInstanceAddr(ap *Autopilot, model string) string {
	fallback := ""
	for _, is := range ap.Controller().Stats().Instances {
		if is.Draining || !strings.HasSuffix(is.TypeName, ":spot") {
			continue
		}
		if is.Model == model {
			return is.Addr
		}
		fallback = is.Addr
	}
	return fallback
}

// TestSpotFleetPreemptionEndToEnd is the spot-market acceptance run: a
// 2-model fleet planned over a spot-discounted pool serves external HTTP
// traffic while one spot instance receives a scheduled revocation notice.
// The autopilot must drain it ahead of the deadline, replan around the
// hole before the deadline expires, drop zero external queries, and leave
// the preemption visible in the decision journal and on /metrics.
// Guarded by -short; CI runs it under -race.
func TestSpotFleetPreemptionEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping spot preemption e2e in -short mode")
	}
	t.Parallel()
	pool := DefaultPool().WithSpotMarket(0.7)
	e := multiEngine(t, WithPool(pool)) // NCF + MT-WND, shared $0.9/hr

	fleet := NewFleet(1, e.Models()...)
	ap, err := e.Autopilot(1, AutopilotOptions{
		Interval:        25 * time.Millisecond,
		Cooldown:        50 * time.Millisecond,
		Window:          300,
		MinObservations: 100,
		OnDemandFloor:   0.5,
		Provider:        fleet,
		Ingress:         &IngressOptions{HTTPAddr: "127.0.0.1:0", TCPAddr: "127.0.0.1:0", MaxQueue: 8192},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ap.Close()
	ap.Start()
	adminAddr, err := ap.StartAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// A 70% discount must pull the plan onto spot capacity.
	initial := ap.Current()
	if initial["NCF"].Total() == 0 || initial["MT-WND"].Total() == 0 {
		t.Fatalf("initial plan must serve both models: %v", initial)
	}
	spotCount := 0
	for i, ty := range pool {
		if strings.HasSuffix(ty.Name, ":spot") {
			for _, cfg := range initial {
				spotCount += cfg[i]
			}
		}
	}
	if spotCount == 0 {
		t.Fatalf("70%% spot discount bought no spot capacity: %v", initial)
	}

	ing := ap.Ingress()
	url := "http://" + ing.HTTPAddr() + "/submit"
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	load := func(model string, n int, batch int, gap time.Duration) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := httpSubmit(client, url, model, batch); err != nil {
					errs <- err
				}
			}()
			time.Sleep(gap)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("%s query dropped: %v", model, err)
		}
	}

	// Warm external load so the preemption lands on a serving fleet.
	load("NCF", 80, 40, time.Millisecond)
	load("MT-WND", 60, 50, time.Millisecond)

	target := spotInstanceAddr(ap, "NCF")
	if target == "" {
		t.Fatalf("no spot instance to preempt in plan %v", ap.Current())
	}
	deadline, err := fleet.Preempt(target, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Load keeps flowing across the notice, drain, and replan.
	load("NCF", 80, 40, time.Millisecond)

	// The notice must be answered — drained AND replanned — before the
	// revocation deadline.
	for {
		f := ap.Faults()
		drained, replanned, deaths := f.PreemptionsDrained, f.PreemptionsReplanned, f.PreemptionDeadlineDeaths
		if deaths != 0 {
			t.Fatalf("the drain lost the race against a %s notice", time.Until(deadline))
		}
		if drained >= 1 && replanned >= 1 {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("notice not answered by the deadline: drained=%d replanned=%d", drained, replanned)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The reshaped fleet still serves both models, drop-free.
	load("NCF", 40, 40, time.Millisecond)
	load("MT-WND", 40, 50, time.Millisecond)
	st := ap.Controller().Stats()
	if st.Failed != 0 {
		t.Fatalf("%d queries dropped across the preemption", st.Failed)
	}

	// The journal carries the preempt kind with both latencies.
	sawPreempt := false
	for _, ev := range ap.Decisions() {
		if ev.Kind != "preempt" {
			continue
		}
		if ev.Err != "" {
			t.Fatalf("preempt journal entry carries an error: %+v", ev)
		}
		if ev.PreemptDrainMS <= 0 || ev.PreemptReplanMS < ev.PreemptDrainMS {
			t.Fatalf("preempt latencies malformed: %+v", ev)
		}
		sawPreempt = true
	}
	if !sawPreempt {
		t.Fatalf("no preempt entry in the decision journal: %+v", ap.Decisions())
	}
	status := ap.Status()
	if status.Faults.Preemptions != 1 || status.Faults.PreemptionsDrained != 1 ||
		status.Faults.PreemptionsReplanned != 1 || status.Faults.PreemptionDeadlineDeaths != 0 {
		t.Fatalf("preemption accounting = %+v", status.Faults)
	}

	// Prometheus surface: counters and the drain histogram are exported.
	resp, err := http.Get("http://" + adminAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(body)
	for _, want := range []string{
		"kairos_preemptions_total 1",
		"kairos_preemptions_drained_total 1",
		"kairos_preemptions_replanned_total 1",
		"kairos_preemption_deadline_deaths_total 0",
		"kairos_preemption_drain_seconds_count 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestPreemptionDeadlineRaceEndToEnd forces the race the notice window
// cannot rule out: the noticed instance is stalled (its drain cannot
// finish) so the revocation deadline kills it mid-drain. The autopilot
// must fall back to the eviction path — stranded queries redispatched,
// the death recorded as a deadline loss, the fleet healed — with zero
// dropped external queries. Guarded by -short; CI runs it under -race.
func TestPreemptionDeadlineRaceEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping preemption race e2e in -short mode")
	}
	t.Parallel()
	e := multiEngine(t)
	chaos := &soak.Chaos{}
	fleet := NewFleet(1, e.Models()...)
	fleet.Front = chaos.Front
	ap, err := e.Autopilot(1, AutopilotOptions{
		Interval: 25 * time.Millisecond,
		Provider: fleet,
		Ingress:  &IngressOptions{HTTPAddr: "127.0.0.1:0", TCPAddr: "127.0.0.1:0", MaxQueue: 8192},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ap.Close()
	ap.Start()

	ing := ap.Ingress()
	url := "http://" + ing.HTTPAddr() + "/submit"
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}

	// In-flight queries on every NCF instance, then a stall on one so its
	// drain provably cannot complete inside the notice window.
	var wg sync.WaitGroup
	errs := make(chan error, 256)
	wave := func() {
		for i := 0; i < 64; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := httpSubmit(client, url, "NCF", 500); err != nil {
					errs <- err
				}
			}()
		}
	}
	pendingOn := func(addr string) int {
		for _, is := range ap.Controller().Stats().Instances {
			if is.Addr == addr {
				return is.Pending
			}
		}
		return 0
	}
	// A stall pins only the work still pending once it has taken hold: a
	// reply already past the proxy's gate lands anyway, and an instance
	// whose last reply that was drains in time. So stall first and look
	// again; when nothing stayed behind, lift it and try the next busy
	// instance, with a fresh wave if the first one is spent.
	wave()
	var target string
	for deadline, waves := time.Now().Add(5*time.Second), 1; time.Now().Before(deadline) && target == ""; {
		st := ap.Controller().Stats()
		for _, is := range st.Instances {
			if is.Model != "NCF" || is.Pending == 0 || is.Draining {
				continue
			}
			if err := chaos.SetStall(is.Addr, true); err != nil {
				t.Fatal(err)
			}
			time.Sleep(5 * time.Millisecond)
			if pendingOn(is.Addr) > 0 {
				target = is.Addr
				break
			}
			chaos.SetStall(is.Addr, false)
		}
		if target == "" && st.Submitted == st.Completed+st.Failed && waves < 4 {
			wave()
			waves++
		}
		time.Sleep(2 * time.Millisecond)
	}
	if target == "" {
		t.Fatal("no busy NCF instance to preempt")
	}
	// Lift the stall after the deadline has fired, so the controller sees
	// the death and the eviction fallback runs.
	time.AfterFunc(400*time.Millisecond, func() { chaos.SetStall(target, false) })

	if _, err := fleet.Preempt(target, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// The deadline death must be recorded — the drain lost by design.
	raceSeen := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		f := ap.Faults()
		noticed, drained, deaths := f.Preemptions, f.PreemptionsDrained, f.PreemptionDeadlineDeaths
		if deaths == 1 && noticed == 1 {
			if drained != 0 {
				t.Fatalf("a mid-drain death must not also count as drained: drained=%d", drained)
			}
			raceSeen = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !raceSeen {
		t.Fatalf("deadline kill never surfaced as a mid-drain death: %v", ap.Status().Faults)
	}

	// Every stranded query redispatches; nothing is dropped.
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("query dropped in the drain/death race: %v", err)
	}
	if st := ap.Controller().Stats(); st.Failed != 0 {
		t.Fatalf("%d queries dropped in the drain/death race", st.Failed)
	}

	// The eviction fallback heals the hole like any fault.
	healed := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		st := ap.Status()
		if st.Faults.Heals >= 1 && !st.Faults.Pending {
			healed = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !healed {
		t.Fatalf("fleet never healed after the deadline death: %+v", ap.Status().Faults)
	}
	journalHasRace := false
	for _, ev := range ap.Decisions() {
		if ev.Kind == "preempt" && strings.Contains(ev.Reason, "died mid-drain") {
			journalHasRace = true
		}
	}
	if !journalHasRace {
		t.Fatal("mid-drain death missing from the decision journal")
	}
}
