package server

import (
	"errors"
	"slices"
	"testing"
	"time"

	"kairos/internal/cloud"
	"kairos/internal/models"
	"kairos/internal/sim"
)

// observation is one Observe call a policy received.
type observation struct {
	typeName  string
	batch     int
	serviceMS float64
}

// observingPolicy is least-loaded dispatch that records every completion
// the controller reports back to it. The test drives everything on its own
// goroutine, so a plain slice does.
type observingPolicy struct {
	sim.LeastLoaded
	seen []observation
}

func (p *observingPolicy) Observe(typeName string, batch int, serviceMS float64) {
	p.seen = append(p.seen, observation{typeName, batch, serviceMS})
}

// TestCompletionsTrainTheirModelsPolicy: every successful reply reaches
// the policy of its own model exactly once, with the serving type, the
// query's batch and the reply's ServiceMS — the feedback online learners
// train on. An error reply does not, and neither does a reply to a query
// the controller already failed, by eviction or by Close.
func TestCompletionsTrainTheirModelsPolicy(t *testing.T) {
	t.Parallel()
	policies := map[string]*observingPolicy{"NCF": {}, "MT-WND": {}}
	specs := map[string]GroupSpec{}
	for model, p := range policies {
		specs[model] = GroupSpec{Policy: p, Predict: models.MustByName(model).Latency}
	}
	c, err := newController(specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0)
	join := func(model, typeName string) (*remoteInstance, *memLink) {
		link := &memLink{closed: make(chan struct{})}
		ri := &remoteInstance{
			model: model, typeName: typeName, addr: model + "/" + typeName, link: link,
			drained:   make(chan struct{}),
			serveHist: c.obs.Model(model).ServeHist(typeName), typeID: c.obs.Intern(typeName),
		}
		if err := c.admit(ri, func() { <-link.closed }); err != nil {
			t.Fatal(err)
		}
		return ri, link
	}
	// submit enqueues one query, runs its model's scheduler and returns the
	// request that reached the instance.
	submit := func(model string, batch int, link *memLink, sink *simSink) Request {
		t.Helper()
		if c.enqueue(model, batch, SubmitOptions{}, sink, now) == nil {
			t.Fatalf("%s batch %d refused: %+v", model, batch, sink.res)
		}
		c.schedule(c.groups[model], func() time.Time { return now })
		if len(link.inbox) == 0 {
			t.Fatalf("%s batch %d not dispatched", model, batch)
		}
		req := link.inbox[len(link.inbox)-1]
		link.inbox = link.inbox[:len(link.inbox)-1]
		return req
	}
	want := func(model string, obs ...observation) {
		t.Helper()
		if got := policies[model].seen; !slices.Equal(got, obs) {
			t.Fatalf("%s policy observed %+v, want %+v", model, got, obs)
		}
	}

	ncf, ncfLink := join("NCF", cloud.G4dnXlarge.Name)
	wnd, wndLink := join("MT-WND", cloud.R5nLarge.Name)

	// Two successes, one per model, and an error reply.
	var ok1, ok2, bad simSink
	r1 := submit("NCF", 10, ncfLink, &ok1)
	r2 := submit("MT-WND", 30, wndLink, &ok2)
	r3 := submit("NCF", 20, ncfLink, &bad)
	c.complete(wnd, Reply{ID: r2.ID, ServiceMS: 7.25}, now)
	c.complete(ncf, Reply{ID: r3.ID, ServiceMS: 2, Err: "instance: boom"}, now)
	c.complete(ncf, Reply{ID: r1.ID, ServiceMS: 3.5}, now)
	if ok1.fired != 1 || ok1.res.Err != nil || ok2.fired != 1 || ok2.res.Err != nil || bad.fired != 1 || bad.res.Err == nil {
		t.Fatalf("deliveries: %+v %+v %+v", ok1, ok2, bad)
	}
	want("NCF", observation{cloud.G4dnXlarge.Name, 10, 3.5})
	want("MT-WND", observation{cloud.R5nLarge.Name, 30, 7.25})

	// A duplicate reply to a delivered query trains nothing.
	c.complete(ncf, Reply{ID: r1.ID, ServiceMS: 3.5}, now)
	want("NCF", observation{cloud.G4dnXlarge.Name, 10, 3.5})

	// Eviction: the model's only instance dies with a query in flight, which
	// fails for want of capacity; its late reply trains nothing.
	var evicted simSink
	r4 := submit("NCF", 40, ncfLink, &evicted)
	c.evict(ncf, errors.New("killed"))
	c.schedule(c.groups["NCF"], func() time.Time { return now })
	if evicted.fired != 1 || evicted.res.Err == nil {
		t.Fatalf("evicted query: %+v", evicted)
	}
	c.complete(ncf, Reply{ID: r4.ID, ServiceMS: 4}, now)
	want("NCF", observation{cloud.G4dnXlarge.Name, 10, 3.5})

	// Close fails the query in flight; its late reply trains nothing.
	var closed simSink
	r5 := submit("MT-WND", 50, wndLink, &closed)
	c.Close()
	if closed.fired != 1 || closed.res.Err == nil {
		t.Fatalf("query failed by Close: %+v", closed)
	}
	c.complete(wnd, Reply{ID: r5.ID, ServiceMS: 9}, now)
	want("MT-WND", observation{cloud.R5nLarge.Name, 30, 7.25})
}
