package server

import (
	"testing"
	"time"

	"kairos/internal/cloud"
	"kairos/internal/models"
	"kairos/internal/sim"
)

func TestSessionHash(t *testing.T) {
	if SessionHash(nil) == 0 || SessionHash([]byte("user-1")) == 0 {
		t.Fatal("zero hash is reserved for no-session")
	}
	if SessionHash([]byte("user-1")) != SessionHash([]byte("user-1")) {
		t.Fatal("hash must be deterministic")
	}
	if SessionHash([]byte("user-1")) == SessionHash([]byte("user-2")) {
		t.Fatal("distinct keys should not collide")
	}
}

func TestAffinityRingPick(t *testing.T) {
	a := &remoteInstance{addr: "10.0.0.1:9000", state: stateActive}
	b := &remoteInstance{addr: "10.0.0.2:9000", state: stateActive}
	c := &remoteInstance{addr: "10.0.0.3:9000", state: stateActive}
	var r affinityRing
	r.rebuild([]*remoteInstance{a, b, c})
	if len(r.entries) != 3*affinityVNodes {
		t.Fatalf("ring has %d entries, want %d", len(r.entries), 3*affinityVNodes)
	}
	// Deterministic: the same session maps to the same instance.
	s := SessionHash([]byte("session-42"))
	first := r.pick(s, 1)
	if first == nil {
		t.Fatal("pick on an idle ring must succeed")
	}
	for i := 0; i < 10; i++ {
		if got := r.pick(s, 1); got != first {
			t.Fatalf("pick is not stable: %s then %s", first.addr, got.addr)
		}
	}
	// Bounded load: saturate the preferred instance and the session spills
	// to another — but never to a nil when capacity exists elsewhere.
	first.pending = make([]*pendingQuery, 3)
	spill := r.pick(s, 3)
	if spill == nil || spill == first {
		t.Fatalf("saturated pick = %v, want a different live instance", spill)
	}
	// Draining instances vanish from a rebuilt ring.
	first.state = stateDraining
	r.rebuild([]*remoteInstance{a, b, c})
	if len(r.entries) != 2*affinityVNodes {
		t.Fatalf("ring keeps draining instance: %d entries", len(r.entries))
	}
	for _, e := range r.entries {
		if e.ri == first {
			t.Fatal("draining instance still on the ring")
		}
	}
	// Everything saturated: pick yields so the policy decides.
	a.pending = make([]*pendingQuery, 5)
	b.pending = make([]*pendingQuery, 5)
	c.pending = make([]*pendingQuery, 5)
	if got := r.pick(s, 2); got != nil {
		t.Fatalf("fully saturated ring must yield, got %s", got.addr)
	}
}

func TestAffinityBound(t *testing.T) {
	// Idle group, 2 instances: bound = ceil(5·1/8) = 1 — an idle preferred
	// instance always qualifies.
	if got := affinityBound(0, 2); got != 1 {
		t.Fatalf("affinityBound(0,2) = %d", got)
	}
	// backlog 8 over 2 instances: fair share is ~4.5, bound caps at 25%
	// over: ceil(5·9/8) = 6.
	if got := affinityBound(8, 2); got != 6 {
		t.Fatalf("affinityBound(8,2) = %d", got)
	}
	if got := affinityBound(10, 0); got != 0 {
		t.Fatalf("affinityBound with no instances = %d", got)
	}
}

// TestSessionAffinityStickiness: with two instances of distinct types,
// every query of one session lands on the same instance, and a second
// session is also internally consistent.
func TestSessionAffinityStickiness(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	types := []string{cloud.G4dnXlarge.Name, cloud.R5nLarge.Name}
	addrs := startCluster(t, types, 1)
	ctrl, err := NewController(m.Name, &sim.LeastLoaded{}, 1, m.Latency, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	served := func(session string, n int) map[string]int {
		t.Helper()
		got := map[string]int{}
		opts := SubmitOptions{SessionHash: SessionHash([]byte(session))}
		for i := 0; i < n; i++ {
			res := ctrl.SubmitWaitOpts(m.Name, 10, opts)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			got[res.Instance]++
		}
		return got
	}
	for _, session := range []string{"alice", "bob", "carol"} {
		got := served(session, 25)
		if len(got) != 1 {
			t.Fatalf("session %q split across instances: %v", session, got)
		}
	}
}

// neverAssign parks every query: what a deadline test needs.
type neverAssign struct{}

func (neverAssign) Name() string { return "never" }
func (neverAssign) Assign(float64, []sim.QueryView, []sim.InstanceView) []sim.Assignment {
	return nil
}

func TestSubmitDeadline(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	types := []string{cloud.G4dnXlarge.Name}
	addrs := startCluster(t, types, 1)
	ctrl, err := NewController(m.Name, neverAssign{}, 1, m.Latency, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	start := time.Now()
	res := ctrl.SubmitWaitOpts(m.Name, 10, SubmitOptions{Deadline: time.Now().Add(20 * time.Millisecond)})
	if res.Err == nil || res.Err.Error() != DeadlineExceededMsg {
		t.Fatalf("expired query returned %v, want %q", res.Err, DeadlineExceededMsg)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("deadline delivery took %v", waited)
	}
	// Without a deadline under the same policy the query would hang — the
	// sweep must not touch deadline-free queries. Give one a session too,
	// to cover the affinity+deadline combination.
	res = ctrl.SubmitWaitOpts(m.Name, 10, SubmitOptions{
		SessionHash: SessionHash([]byte("s")),
		Deadline:    time.Now().Add(20 * time.Millisecond),
	})
	// The affinity pass dispatches session queries itself, bypassing the
	// policy — so this one actually serves.
	if res.Err != nil {
		t.Fatalf("session query under never-assign policy: %v", res.Err)
	}
}
