package server

import (
	"kairos/internal/cloud"
	"kairos/internal/models"
	"kairos/internal/sim"
)

// This file is the serving-path benchmark fixture shared across packages:
// this package's benchmarks and internal/ingress's boot the same cluster
// under the same plumbing-only policy.

// LeastBacklog is a zero-allocation least-backlog dispatcher: it assigns
// each waiting query to the assignable instance with the shallowest
// backlog. The serving-path benchmarks use it to isolate the controller
// and wire machinery from the matching policy's own Assign cost (tracked
// separately by the core microbenchmarks).
type LeastBacklog struct {
	// MaxPending caps an instance's backlog (in flight + queued) before it
	// stops receiving work; 0 means 16.
	MaxPending int

	out  []sim.Assignment
	load []int
}

// Name implements sim.Distributor.
func (p *LeastBacklog) Name() string { return "least-backlog" }

// Assign implements sim.Distributor.
func (p *LeastBacklog) Assign(_ float64, waiting []sim.QueryView, instances []sim.InstanceView) []sim.Assignment {
	maxPending := p.MaxPending
	if maxPending <= 0 {
		maxPending = 16
	}
	p.out = p.out[:0]
	p.load = p.load[:0]
	for _, in := range instances {
		p.load = append(p.load, in.Backlog())
	}
	for _, q := range waiting {
		best := -1
		for i := range instances {
			if p.load[i] >= maxPending {
				continue
			}
			if best < 0 || p.load[i] < p.load[best] {
				best = i
			}
		}
		if best < 0 {
			break
		}
		p.load[best]++
		p.out = append(p.out, sim.Assignment{Query: q.Index, Instance: instances[best].Index})
	}
	return p.out
}

// BenchCluster is the canonical serving-path benchmark fixture: two
// models (NCF and MT-WND), two loopback instance servers each (one GPU,
// one CPU type), and a connected controller.
type BenchCluster struct {
	Ctrl *Controller
	// ModelNames are the two served models, for alternating submitters.
	ModelNames []string
	servers    []*InstanceServer
}

// StartBenchCluster boots the fixture. scale compresses emulated service
// time (1e-6 makes the wire + scheduler path the measured cost, not the
// sleep). mkPolicy builds each model's dispatch policy; nil uses
// LeastBacklog.
func StartBenchCluster(scale float64, mkPolicy func(m models.Model, types []string) sim.Distributor) (*BenchCluster, error) {
	if mkPolicy == nil {
		mkPolicy = func(models.Model, []string) sim.Distributor { return &LeastBacklog{} }
	}
	ncf := models.MustByName("NCF")
	wnd := models.MustByName("MT-WND")
	specs := []struct {
		m  models.Model
		tn string
	}{
		{ncf, cloud.G4dnXlarge.Name},
		{ncf, cloud.R5nLarge.Name},
		{wnd, cloud.G4dnXlarge.Name},
		{wnd, cloud.R5nLarge.Name},
	}
	c := &BenchCluster{ModelNames: []string{ncf.Name, wnd.Name}}
	addrs := make([]string, len(specs))
	for i, sp := range specs {
		s, err := NewInstanceServer(sp.tn, sp.m, scale)
		if err != nil {
			c.Close()
			return nil, err
		}
		if err := s.Start("127.0.0.1:0"); err != nil {
			c.Close()
			return nil, err
		}
		c.servers = append(c.servers, s)
		addrs[i] = s.Addr()
	}
	types := []string{cloud.G4dnXlarge.Name, cloud.R5nLarge.Name}
	groups := map[string]GroupSpec{
		ncf.Name: {Policy: mkPolicy(ncf, types), Predict: ncf.Latency},
		wnd.Name: {Policy: mkPolicy(wnd, types), Predict: wnd.Latency},
	}
	ctrl, err := NewMultiController(groups, scale, addrs)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.Ctrl = ctrl
	return c, nil
}

// Close tears the controller and servers down.
func (c *BenchCluster) Close() {
	if c.Ctrl != nil {
		c.Ctrl.Close()
	}
	for _, s := range c.servers {
		s.Close()
	}
}
