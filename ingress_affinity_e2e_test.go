package kairos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"
)

// sessionSubmit posts one session-keyed query to the HTTP ingress.
func sessionSubmit(client *http.Client, url, model, session string, batch int) error {
	body, _ := json.Marshal(map[string]any{"model": model, "batch": batch, "session": session})
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

// TestIngressSessionAffinityEndToEnd proves the session-affine front
// door end to end: repeat-session queries land on one instance (read
// from the controller's per-instance counters, keyed by address), a
// mid-run mix shift replans the fleet under live session traffic with
// zero drops, and the rebuilt affinity ring is sticky again afterwards.
// Guarded by -short; CI runs it under -race.
func TestIngressSessionAffinityEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping session-affinity ingress e2e in -short mode")
	}
	t.Parallel()
	e := multiEngine(t) // NCF + MT-WND, shared $0.9/hr

	ap, err := e.Autopilot(1, AutopilotOptions{
		Interval:        25 * time.Millisecond,
		Cooldown:        50 * time.Millisecond,
		Window:          300,
		MinObservations: 100,
		Ingress:         &IngressOptions{HTTPAddr: "127.0.0.1:0", TCPAddr: "127.0.0.1:0", MaxQueue: 8192},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ap.Close()
	ap.Start()

	if n := len(ap.Controller().Stats().Models["NCF"].Instances); n < 2 {
		t.Fatalf("initial plan serves NCF on %d instance(s); affinity needs a choice", n)
	}

	ing := ap.Ingress()
	url := "http://" + ing.HTTPAddr() + "/submit"
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}

	// ncfCompleted snapshots per-instance completion counters by address
	// — the only instance identity that survives type duplicates.
	ncfCompleted := func() map[string]int64 {
		m := make(map[string]int64)
		for _, is := range ap.Controller().Stats().Models["NCF"].Instances {
			m[is.Addr] = is.Completed
		}
		return m
	}
	// stickiness sends n sequential queries per session and asserts each
	// session's traffic landed on exactly one instance. Sequential: with
	// at most one outstanding query, the bounded-load check always admits
	// the preferred instance, so affinity must be perfect here.
	stickiness := func(label string, sessions []string, n int) {
		t.Helper()
		for _, sess := range sessions {
			before := ncfCompleted()
			for i := 0; i < n; i++ {
				if err := sessionSubmit(client, url, "NCF", sess, 20+i%10); err != nil {
					t.Fatalf("%s: session %q query %d dropped: %v", label, sess, i, err)
				}
			}
			// The last completion races the stats snapshot; poll briefly.
			deadline := time.Now().Add(5 * time.Second)
			for {
				after := ncfCompleted()
				total, hot := int64(0), 0
				for addr, c := range after {
					if d := c - before[addr]; d > 0 {
						total += d
						hot++
					}
				}
				if total >= int64(n) {
					if hot != 1 {
						t.Fatalf("%s: session %q spread %d queries over %d instances (want 1): before=%v after=%v",
							label, sess, total, hot, before, after)
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%s: session %q: only %d/%d completions visible", label, sess, total, n)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}

	// Phase 1: the fresh ring is sticky for every session.
	stickiness("phase-1", []string{"alice", "bob", "carol"}, 30)

	// Phase 2: MT-WND shifts to GPU-sized batches, forcing a replan of
	// the live fleet, while session traffic keeps flowing. Nothing may
	// drop while instances are swapped under the ring.
	largeB := Uniform(500, 800)
	rng := rand.New(rand.NewSource(17))
	var wg sync.WaitGroup
	errs := make(chan error, 4096)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var inner sync.WaitGroup
		for i := 0; i < 180; i++ {
			inner.Add(1)
			go func(batch int) {
				defer inner.Done()
				if err := httpSubmit(client, url, "MT-WND", batch); err != nil {
					errs <- err
				}
			}(largeB.Sample(rng))
			time.Sleep(8 * time.Millisecond)
		}
		inner.Wait()
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 120; i++ {
			if err := sessionSubmit(client, url, "NCF", "alice", 20+i%10); err != nil {
				errs <- err
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("query dropped during the replan phase: %v", err)
	}

	deadline := time.Now().Add(20 * time.Second)
	for ap.Replans() == 0 && time.Now().Before(deadline) {
		time.Sleep(25 * time.Millisecond)
	}
	if ap.Replans() == 0 {
		t.Fatal("the autopilot never replanned after the mix shift")
	}

	// Phase 3: the ring was rebuilt from the reshaped fleet; sessions are
	// sticky again (not necessarily on their old instances). The TCP
	// transport's session path gets a spot check alongside.
	stickiness("post-replan", []string{"alice", "dave"}, 30)
	cli, err := DialIngress(ing.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	before := ncfCompleted()
	for i := 0; i < 20; i++ {
		rep, err := cli.SubmitOpts("NCF", 20+i, IngressSubmitOptions{Session: "tcp-session"})
		if err != nil || rep.Err != "" {
			t.Fatalf("binary-TCP session query %d dropped: rep=%+v err=%v", i, rep, err)
		}
	}
	after := ncfCompleted()
	hot := 0
	for addr, c := range after {
		if c-before[addr] > 0 {
			hot++
		}
	}
	if hot != 1 {
		t.Fatalf("TCP session spread over %d instances (want 1): before=%v after=%v", hot, before, after)
	}

	// Zero drops across the whole run: every externally admitted query
	// completed, nothing rejected, nothing failed.
	st := ap.Controller().Stats()
	if st.Failed != 0 {
		t.Fatalf("%d queries dropped across the replan", st.Failed)
	}
	for _, model := range []string{"NCF", "MT-WND"} {
		is, ok := st.Ingress[model]
		if !ok {
			t.Fatalf("controller stats missing ingress section for %s", model)
		}
		if is.Rejected != 0 || is.RateLimited != 0 || is.Failed != 0 || is.Completed != is.Submitted || is.Queue != 0 {
			t.Fatalf("%s ingress accounting shows drops: %+v", model, is)
		}
	}
}
