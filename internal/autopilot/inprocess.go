package autopilot

import (
	"fmt"
	"sync"
	"time"

	"kairos/internal/models"
	"kairos/internal/server"
)

// Fleet is the in-process actuation Provider: it launches and stops
// instance servers on loopback TCP inside the controlling process. Every
// server emulates one instance type hosting one of the fleet's
// registered models at the fleet's time scale (see server.InstanceServer)
// — the zero-setup provider tests, examples, and single-binary runs use.
type Fleet struct {
	timeScale float64
	models    map[string]models.Model
	spotMarket

	mu      sync.Mutex
	servers map[string]*fleetServer // keyed by listen address; nil once closed
}

var (
	_ Provider  = (*Fleet)(nil)
	_ Reaper    = (*Fleet)(nil)
	_ Noticer   = (*Fleet)(nil)
	_ Preempter = (*Fleet)(nil)
)

type fleetServer struct {
	model    string
	typeName string
	srv      *server.InstanceServer
}

// NewFleet prepares an empty in-process fleet serving the given models at
// one time scale. Like the server layer, a non-positive timeScale means
// real time.
func NewFleet(timeScale float64, ms ...models.Model) *Fleet {
	if timeScale <= 0 {
		timeScale = 1
	}
	byName := make(map[string]models.Model, len(ms))
	for _, m := range ms {
		byName[m.Name] = m
	}
	return &Fleet{
		timeScale:  timeScale,
		models:     byName,
		spotMarket: newSpotMarket(),
		servers:    map[string]*fleetServer{},
	}
}

// Preempt implements Preempter, emulating the cloud reclaiming spot
// capacity: the server at addr is killed as abruptly as a SIGKILL once the
// notice window elapses (see spotMarket.preempt).
func (f *Fleet) Preempt(addr string, notice time.Duration) (time.Time, error) {
	f.mu.Lock()
	_, ok := f.servers[addr]
	f.mu.Unlock()
	if !ok {
		return time.Time{}, fmt.Errorf("autopilot: no fleet server at %s", addr)
	}
	// Kill's only error is "already gone": the drain won the race.
	return f.preempt(addr, notice, func() { _ = f.Kill(addr) }), nil
}

// TimeScale returns the fleet's time dilation factor.
func (f *Fleet) TimeScale() float64 { return f.timeScale }

// Launch starts one instance server of the given type hosting the named
// model on an ephemeral loopback port and returns its address.
func (f *Fleet) Launch(model, typeName string) (string, error) {
	m, ok := f.models[model]
	if !ok {
		return "", fmt.Errorf("autopilot: fleet does not serve model %q", model)
	}
	srv, err := server.NewInstanceServer(typeName, m, f.timeScale)
	if err != nil {
		return "", err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return "", err
	}
	addr := srv.Addr()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.servers == nil {
		srv.Close()
		return "", errClosed
	}
	f.servers[addr] = &fleetServer{model: model, typeName: typeName, srv: srv}
	return addr, nil
}

// Stop shuts down the server at addr and forgets it.
func (f *Fleet) Stop(addr string) error {
	f.mu.Lock()
	fs, ok := f.servers[addr]
	delete(f.servers, addr)
	f.mu.Unlock()
	if !ok {
		return fmt.Errorf("autopilot: no fleet server at %s", addr)
	}
	return fs.srv.Close()
}

// Kill abruptly closes the server at addr without forgetting it — the
// in-process analogue of SIGKILLing a kairosd: controller connections
// drop, the eviction path fires, and the fault-heal reap (Reap) later
// clears the bookkeeping.
func (f *Fleet) Kill(addr string) error {
	f.mu.Lock()
	fs, ok := f.servers[addr]
	f.mu.Unlock()
	if !ok {
		return fmt.Errorf("autopilot: no fleet server at %s", addr)
	}
	return fs.srv.Kill()
}

// Reap forgets a server that died on its own (implements Reaper).
// Unknown addresses are fine — the fault may already have been reaped.
func (f *Fleet) Reap(addr string) error {
	f.mu.Lock()
	fs, ok := f.servers[addr]
	delete(f.servers, addr)
	f.mu.Unlock()
	if ok {
		fs.srv.Kill()
	}
	return nil
}

// Addrs lists the running servers' addresses in unspecified order.
func (f *Fleet) Addrs() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.servers))
	for addr := range f.servers {
		out = append(out, addr)
	}
	return out
}

// Counts returns the number of running servers per model per instance
// type.
func (f *Fleet) Counts() map[string]map[string]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]map[string]int)
	for _, fs := range f.servers {
		if out[fs.model] == nil {
			out[fs.model] = make(map[string]int)
		}
		out[fs.model][fs.typeName]++
	}
	return out
}

// Size returns the number of running servers.
func (f *Fleet) Size() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.servers)
}

// Close stops every running server; Launch fails from here on.
func (f *Fleet) Close() error {
	f.mu.Lock()
	servers := f.servers
	f.servers = nil
	f.mu.Unlock()
	var first error
	for _, fs := range servers {
		if err := fs.srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
