package server

import (
	"fmt"

	"kairos/internal/cloud"
	"kairos/internal/models"
	"kairos/internal/sim"
)

// This file is the shared support for the serving-path benchmarks: the
// in-package go-test benchmarks and cmd/kairos-microbench (which writes
// the BENCH_micro.json trajectory CI tracks) must measure the same
// workload, so the policy, the cluster bootstrap, and the codec exercise
// loops live here once instead of drifting apart as two copies.

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

// Worker is one closed-loop submitter: it alternates models by worker
// index and calls SubmitWait while next() keeps it running (testing.PB's
// Next, typically). The first error stops the loop.
func (c *BenchCluster) Worker(w int64, next func() bool) error {
	model := c.ModelNames[w%2]
	batch := 1 + int(w%8)*20
	for next() {
		if res := c.Ctrl.SubmitWait(model, batch); res.Err != nil {
			return res.Err
		}
	}
	return nil
}

// FrameBenchCase is one wire-codec exercise loop shared between the
// go-test benchmarks and kairos-microbench.
type FrameBenchCase struct {
	Name string
	// Loop runs n iterations of the case.
	Loop func(n int) error
}

// FrameBenchCases covers the codec in both hot directions: request
// encode (the controller's per-dispatch cost) and reply decode (its
// per-completion cost).
func FrameBenchCases() []FrameBenchCase {
	req := Request{ID: 123456789, Model: "NCF", Batch: 750}
	rep := Reply{ID: 123456789, ServiceMS: 1.348}
	return []FrameBenchCase{
		{"FrameEncodeRequestBinary", func(n int) error {
			var buf []byte
			for i := 0; i < n; i++ {
				var err error
				buf, err = AppendRequestFrame(buf[:0], req)
				if err != nil {
					return err
				}
			}
			return nil
		}},
		{"FrameDecodeReplyBinary", func(n int) error {
			frame, err := AppendReplyFrame(nil, rep)
			if err != nil {
				return err
			}
			payload := frame[4:]
			for i := 0; i < n; i++ {
				out, err := DecodeReplyFrame(payload)
				if err != nil {
					return err
				}
				if out.ID != rep.ID {
					return fmt.Errorf("decode mismatch: %+v", out)
				}
			}
			return nil
		}},
	}
}
