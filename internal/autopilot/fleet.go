package autopilot

import (
	"fmt"
	"sync"
	"time"

	"kairos/internal/models"
	"kairos/internal/server"
)

// Fleet is the actuation Provider. It owns, once, what every way of
// running instances shares: the map from address to instance, the closed
// state and the spot market's notices. How an instance comes to exist is
// its launcher's business: NewFleet's starts server.InstanceServers on
// loopback inside the controlling process (the zero-setup provider tests,
// examples and single-binary runs use), NewExecFleet's spawns real
// kairosd processes (exec.go). Stop, Reap, Kill and Preempt mean the same
// for both.
type Fleet struct {
	// Front, when set, interposes on every instance at launch: it gets
	// the instance's own address and returns the address the controller
	// dials instead, with the release to run when the instance goes.
	// That address is then the instance's only one: Addrs, preemption
	// notices, Stop, Reap, Kill and Preempt all name it. Set it
	// before the first Launch.
	Front func(addr string) (front string, release func(), err error)
	// Logf, when set, receives one line per instance lifecycle event.
	Logf func(format string, args ...any)

	kind      string // names the launcher in log lines
	timeScale float64
	launch    func(model, typeName string) (instance, string, error)
	notices   chan Preemption

	mu      sync.Mutex
	members map[string]*member // keyed by address; nil once closed
}

var _ Provider = (*Fleet)(nil)

// instance is one launched instance as its launcher drives it.
type instance interface {
	// stop shuts the instance down gracefully.
	stop() error
	// kill makes the instance die abruptly, as a crash would; what is
	// left of it waits for reap.
	kill() error
	// reap releases what is left of a dead instance, killing it first if
	// it somehow still runs.
	reap()
}

// member is one instance the fleet tracks.
type member struct {
	model, typeName string
	inst            instance
	release         func() // the interposer's; nil without one
}

// drop releases the interposer, if any, in front of the instance.
func (m *member) drop() {
	if m.release != nil {
		m.release()
	}
}

func newFleet(kind string, timeScale float64) *Fleet {
	if timeScale <= 0 {
		timeScale = 1
	}
	return &Fleet{
		kind:      kind,
		timeScale: timeScale,
		// Deep enough for every instance of a soak-sized fleet to be
		// revoked between two control ticks without a notice being
		// dropped.
		notices: make(chan Preemption, 64),
		members: map[string]*member{},
	}
}

// NewFleet prepares an empty in-process fleet serving the given models at
// one time scale. Like the server layer, a non-positive timeScale means
// real time.
func NewFleet(timeScale float64, ms ...models.Model) *Fleet {
	byName := make(map[string]models.Model, len(ms))
	for _, m := range ms {
		byName[m.Name] = m
	}
	f := newFleet("in-process", timeScale)
	f.launch = func(model, typeName string) (instance, string, error) {
		m, ok := byName[model]
		if !ok {
			return nil, "", fmt.Errorf("autopilot: fleet does not serve model %q", model)
		}
		srv, err := server.NewInstanceServer(typeName, m, f.timeScale)
		if err != nil {
			return nil, "", err
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			return nil, "", err
		}
		return inProcess{srv}, srv.Addr(), nil
	}
	return f
}

// inProcess is an instance server running inside this process. Its kill
// is the in-process analogue of SIGKILLing a kairosd: controller
// connections drop and the eviction path fires.
type inProcess struct{ srv *server.InstanceServer }

func (s inProcess) stop() error { return s.srv.Close() }
func (s inProcess) kill() error { return s.srv.Kill() }
func (s inProcess) reap()       { s.srv.Kill() }

// TimeScale returns the fleet's time dilation factor.
func (f *Fleet) TimeScale() float64 { return f.timeScale }

func (f *Fleet) logf(format string, args ...any) {
	if f.Logf != nil {
		f.Logf(format, args...)
	}
}

// Launch starts one instance of the given type hosting the named model
// and returns its address once it is ready (through Front, when set).
func (f *Fleet) Launch(model, typeName string) (string, error) {
	f.mu.Lock()
	closed := f.members == nil
	f.mu.Unlock()
	if closed {
		return "", errClosed
	}
	inst, addr, err := f.launch(model, typeName)
	if err != nil {
		return "", err
	}
	m := &member{model: model, typeName: typeName, inst: inst}
	if f.Front != nil {
		if addr, m.release, err = f.Front(addr); err != nil {
			inst.reap()
			return "", err
		}
	}
	f.mu.Lock()
	if closed = f.members == nil; !closed { // else Close won the race while the instance was starting
		f.members[addr] = m
	}
	f.mu.Unlock()
	if closed {
		m.drop()
		m.inst.reap()
		return "", errClosed
	}
	f.logf("autopilot: %s launched %s/%s at %s", f.kind, model, typeName, addr)
	return addr, nil
}

// member returns the instance at addr.
func (f *Fleet) member(addr string) (*member, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if m := f.members[addr]; m != nil {
		return m, nil
	}
	return nil, fmt.Errorf("autopilot: no %s instance at %s", f.kind, addr)
}

// forget removes the instance at addr and returns it, or nil when the
// address is unknown.
func (f *Fleet) forget(addr string) *member {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.members[addr]
	delete(f.members, addr)
	return m
}

// Stop gracefully stops the instance at addr and forgets it.
func (f *Fleet) Stop(addr string) error {
	m := f.forget(addr)
	if m == nil {
		return fmt.Errorf("autopilot: no %s instance at %s", f.kind, addr)
	}
	return f.stop(addr, m)
}

func (f *Fleet) stop(addr string, m *member) error {
	m.drop()
	if err := m.inst.stop(); err != nil {
		return fmt.Errorf("autopilot: %s/%s at %s: %w", m.model, m.typeName, addr, err)
	}
	f.logf("autopilot: %s stopped %s/%s at %s", f.kind, m.model, m.typeName, addr)
	return nil
}

// Reap releases an instance that died on its own. Unknown addresses are
// fine: the fault may already have been reaped.
func (f *Fleet) Reap(addr string) error {
	if m := f.forget(addr); m != nil {
		m.drop()
		m.inst.reap()
		f.logf("autopilot: %s reaped %s/%s at %s", f.kind, m.model, m.typeName, addr)
	}
	return nil
}

// Kill makes the instance at addr die abruptly without forgetting it:
// the crash fault. The controller discovers the death through its
// connection, and the fault-heal path later calls Reap.
func (f *Fleet) Kill(addr string) error {
	m, err := f.member(addr)
	if err != nil {
		return err
	}
	f.logf("autopilot: %s killing %s/%s at %s", f.kind, m.model, m.typeName, addr)
	return m.inst.kill()
}

// Notices is the channel Preempt announces revocations on.
func (f *Fleet) Notices() <-chan Preemption { return f.notices }

// Preempt plays what a cloud spot market does to reclaim the instance at
// addr: a notice now, and a hard kill once the notice window elapses. It
// returns the kill deadline. The kill targets the instance, not the
// address: if it was stopped (drained) first and a later launch got the
// same address, the newcomer is left alone.
func (f *Fleet) Preempt(addr string, notice time.Duration) (time.Time, error) {
	m, err := f.member(addr)
	if err != nil {
		return time.Time{}, err
	}
	deadline := time.Now().Add(notice)
	select {
	case f.notices <- Preemption{Addr: addr, Model: m.model, Deadline: deadline}:
	default:
		// A stalled consumer loses the notice but never the revocation:
		// the deadline kill below still fires and surfaces as a plain
		// instance death.
	}
	time.AfterFunc(notice, func() {
		f.mu.Lock()
		running := f.members[addr] == m
		f.mu.Unlock()
		if running {
			f.logf("autopilot: %s deadline kill of %s/%s at %s", f.kind, m.model, m.typeName, addr)
			_ = m.inst.kill() // its only error is "already gone": a stop raced the deadline
		}
	})
	return deadline, nil
}

// Addrs lists the running instances' addresses in unspecified order.
func (f *Fleet) Addrs() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.members))
	for addr := range f.members {
		out = append(out, addr)
	}
	return out
}

// Counts returns the number of running instances per model per instance
// type.
func (f *Fleet) Counts() map[string]map[string]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]map[string]int)
	for _, m := range f.members {
		if out[m.model] == nil {
			out[m.model] = make(map[string]int)
		}
		out[m.model][m.typeName]++
	}
	return out
}

// Size returns the number of running instances.
func (f *Fleet) Size() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.members)
}

// Close stops every running instance; Launch fails from here on. The
// stops are independent, so they run concurrently: a fleet of daemons
// that ignore SIGTERM costs one stopTimeout, not one per process.
func (f *Fleet) Close() error {
	f.mu.Lock()
	members := f.members
	f.members = nil
	f.mu.Unlock()
	errs := make(chan error, len(members))
	for addr, m := range members {
		go func() { errs <- f.stop(addr, m) }()
	}
	var first error
	for range members {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}
