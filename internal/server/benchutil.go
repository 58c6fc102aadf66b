package server

import (
	"kairos/internal/cloud"
	"kairos/internal/models"
	"kairos/internal/sim"
)

// This file is the serving-path benchmark fixture shared across packages:
// this package's benchmarks and internal/ingress's boot the same cluster
// under the same plumbing-only policy.

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
// sim.LeastLoaded capped at 16 queries per instance.
func StartBenchCluster(scale float64, mkPolicy func(m models.Model, types []string) sim.Distributor) (*BenchCluster, error) {
	if mkPolicy == nil {
		mkPolicy = func(models.Model, []string) sim.Distributor { return &sim.LeastLoaded{MaxBacklog: 16} }
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
