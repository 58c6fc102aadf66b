package kairos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// buildKairosd compiles cmd/kairosd into a temp dir for the exec
// actuation provider. Root-package tests run from the module root, so the
// relative package path resolves.
func buildKairosd(t *testing.T) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH; cannot build kairosd for the exec e2e test")
	}
	bin := filepath.Join(t.TempDir(), "kairosd")
	if runtime.GOOS == "windows" {
		bin += ".exe"
	}
	cmd := exec.Command(goBin, "build", "-o", bin, "./cmd/kairosd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building kairosd: %v\n%s", err, out)
	}
	return bin
}

// httpSubmit posts one query to the HTTP ingress; a non-200 status or a
// body-level error both count as failures.
func httpSubmit(client *http.Client, url, model string, batch int) error {
	body, _ := json.Marshal(map[string]any{"model": model, "batch": batch})
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var rep struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || rep.Error != "" {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, rep.Error)
	}
	return nil
}

// countingProvider counts what it is asked to launch.
type countingProvider struct {
	Provider
	launches int
}

func (p *countingProvider) Launch(model, typeName string) (string, error) {
	p.launches++
	return p.Provider.Launch(model, typeName)
}

// TestAutopilotOptionValidation: a misconfigured deployment fails before
// anything launches — in exec mode a late failure would orphan real
// processes. Every bad option is tried with a provider that counts what it
// is asked to launch.
func TestAutopilotOptionValidation(t *testing.T) {
	t.Parallel()
	e := multiEngine(t)
	door := func(o IngressOptions) *IngressOptions { return &o }
	for _, tc := range []struct {
		name string
		opts AutopilotOptions
	}{
		{"ingress without addresses", AutopilotOptions{Ingress: door(IngressOptions{})}},
		{"negative ingress queue", AutopilotOptions{Ingress: door(IngressOptions{HTTPAddr: "127.0.0.1:0", MaxQueue: -1})}},
		{"door settings without an address", AutopilotOptions{Ingress: door(IngressOptions{MaxQueue: 64, RateLimit: 5})}},
		{"overflowing rate burst", AutopilotOptions{Ingress: door(IngressOptions{HTTPAddr: "127.0.0.1:0", RateLimit: 1e-3, RateBurst: math.MaxInt32})}},
		{"negative on-demand floor", AutopilotOptions{OnDemandFloor: -0.5}},
		{"drift threshold outside (0,1)", AutopilotOptions{DriftThreshold: 1.5}},
	} {
		launched := &countingProvider{Provider: NewFleet(1, e.Models()...)}
		tc.opts.Provider = launched
		if _, err := e.Autopilot(1, tc.opts); err == nil || launched.launches != 0 {
			t.Errorf("%s: err=%v after %d launches, want an error before any", tc.name, err, launched.launches)
		}
	}
	// A provider whose time dilation disagrees with the autopilot's would
	// skew every rate reading; the mismatch is caught before launch.
	if _, err := e.Autopilot(1, AutopilotOptions{Provider: NewFleet(0.5, e.Models()...)}); err == nil {
		t.Fatal("provider/autopilot time-scale mismatch must error")
	}
	// No provider at all is the in-process fleet at the autopilot's scale.
	ap, err := e.Autopilot(1, AutopilotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ap.Close()
	if f, ok := ap.Provider().(*Fleet); !ok || f.TimeScale() != 1 || f.Size() != ap.Current().Total() {
		t.Fatalf("nil Provider: got %T, want the in-process fleet running the initial plan %v", ap.Provider(), ap.Current())
	}
}

// TestExecFleetIngressEndToEnd is the externalized-control-plane
// acceptance run: the autopilot exec-launches a 2-model fleet of real
// kairosd processes, external traffic arrives only through the HTTP
// ingress (plus a binary-TCP spot check), a mid-run mix shift forces a
// fleet replan — real processes SIGTERM'd and spawned under live load —
// and not one externally submitted query is dropped across the
// actuation. Guarded by -short; CI runs it under -race.
func TestExecFleetIngressEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping exec-fleet ingress e2e in -short mode")
	}
	t.Parallel()
	bin := buildKairosd(t)
	pool := DefaultPool()
	e := multiEngine(t) // NCF + MT-WND, shared $0.9/hr, small reference mixes

	ap, err := e.Autopilot(1, AutopilotOptions{
		Interval:        25 * time.Millisecond,
		Cooldown:        50 * time.Millisecond,
		Window:          300,
		MinObservations: 100,
		Provider:        NewExecFleet(bin, 1, "NCF", "MT-WND"),
		Ingress:         &IngressOptions{HTTPAddr: "127.0.0.1:0", TCPAddr: "127.0.0.1:0", MaxQueue: 8192},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ap.Close()
	ap.Start()

	initial := ap.Current()
	if initial["NCF"].Total() == 0 || initial["MT-WND"].Total() == 0 {
		t.Fatalf("initial plan must serve both models: %v", initial)
	}
	if initial["MT-WND"].Base() != 0 {
		t.Fatalf("initial plan %v already owns the GPU; the shift would be invisible", initial)
	}
	// The fleet really is external processes: the provider tracks them.
	ef := ap.Provider().(*Fleet)
	if got := ef.Size(); got != initial.Total() {
		t.Fatalf("exec provider runs %d processes, plan wants %d", got, initial.Total())
	}

	ing := ap.Ingress()
	if ing == nil || ing.HTTPAddr() == "" || ing.TCPAddr() == "" {
		t.Fatal("ingress endpoints missing")
	}
	url := "http://" + ing.HTTPAddr() + "/submit"
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}

	smallA, smallB, largeB := Uniform(10, 60), Uniform(10, 80), Uniform(500, 800)
	var seed int64 = 11
	var seedMu sync.Mutex
	nextRNG := func() *rand.Rand {
		seedMu.Lock()
		defer seedMu.Unlock()
		seed++
		return rand.New(rand.NewSource(seed))
	}
	// send drives n external HTTP queries for one model, paced gapMS
	// apart, and returns the per-query errors.
	send := func(wg *sync.WaitGroup, errs chan<- error, model string, mix BatchDistribution, n int, gapMS float64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := nextRNG()
			var inner sync.WaitGroup
			for i := 0; i < n; i++ {
				inner.Add(1)
				go func(batch int) {
					defer inner.Done()
					if err := httpSubmit(client, url, model, batch); err != nil {
						errs <- fmt.Errorf("%s: %w", model, err)
					}
				}(mix.Sample(rng))
				time.Sleep(time.Duration(gapMS * float64(time.Millisecond)))
			}
			inner.Wait()
		}()
	}
	phase := func(label string, run func(wg *sync.WaitGroup, errs chan<- error)) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, 4096)
		run(&wg, errs)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("%s query dropped: %v", label, err)
		}
	}

	// Phase 1: both models steady on their reference mixes, all traffic
	// external.
	phase("phase-1", func(wg *sync.WaitGroup, errs chan<- error) {
		send(wg, errs, "NCF", smallA, 120, 1)
		send(wg, errs, "MT-WND", smallB, 100, 2)
	})

	// Phase 2: MT-WND shifts to GPU-only batches; the drift trigger must
	// replan the fleet of real processes under this live external load.
	phase("phase-2", func(wg *sync.WaitGroup, errs chan<- error) {
		send(wg, errs, "NCF", smallA, 80, 2)
		send(wg, errs, "MT-WND", largeB, 180, 8)
	})

	deadline := time.Now().Add(20 * time.Second)
	for ap.Replans() == 0 && time.Now().Before(deadline) {
		time.Sleep(25 * time.Millisecond)
	}
	if ap.Replans() == 0 {
		t.Fatal("the autopilot never replanned after the mix shift")
	}

	// Post-replan traffic proves the reshaped process fleet serves, over
	// both transports.
	phase("post-replan", func(wg *sync.WaitGroup, errs chan<- error) {
		send(wg, errs, "MT-WND", largeB, 25, 8)
		send(wg, errs, "NCF", smallA, 25, 2)
	})
	cli, err := DialIngress(ing.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 5; i++ {
		if rep, err := cli.Submit("NCF", 20+i); err != nil || rep.Err != "" {
			t.Fatalf("binary-TCP query %d dropped: rep=%+v err=%v", i, rep, err)
		}
	}

	now := ap.Current()
	if now["MT-WND"].Base() == 0 {
		t.Fatalf("shifted plan %v did not buy MT-WND the GPU", now)
	}
	if got := now.Cost(pool); got > e.Budget()+1e-9 {
		t.Fatalf("fleet plan %v busts the shared budget at $%.3f/hr", now, got)
	}
	// The exec fleet converged to the plan.
	if got := ef.Size(); got != now.Total() {
		t.Fatalf("exec provider runs %d processes, plan wants %d", got, now.Total())
	}

	// The acceptance bar: zero dropped queries across actuation — every
	// externally admitted query completed, nothing rejected, nothing
	// failed, front-end and controller accounting in agreement.
	st := ap.Controller().Stats()
	if st.Failed != 0 {
		t.Fatalf("%d queries dropped during the replan of real processes", st.Failed)
	}
	for _, model := range []string{"NCF", "MT-WND"} {
		is, ok := st.Ingress[model]
		if !ok {
			t.Fatalf("controller stats missing ingress section for %s", model)
		}
		if is.Rejected != 0 || is.Failed != 0 || is.Completed != is.Submitted || is.Queue != 0 {
			t.Fatalf("%s ingress accounting shows drops: %+v", model, is)
		}
	}
	status := ap.Status()
	if !status.Healthy || !status.Ingress.Enabled || status.Plan.Replans == 0 {
		t.Fatalf("status = %+v", status)
	}
}
