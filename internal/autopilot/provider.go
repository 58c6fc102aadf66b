package autopilot

import (
	"errors"
	"fmt"
	"time"

	"kairos/internal/cloud"
	"kairos/internal/core"
)

// Provider is the actuation driver: how instance servers come to exist
// and go away. The actuator (and the facade's initial deploy) work
// exclusively against this interface, so the same control loop manages
// in-process loopback servers (Fleet), exec'd kairosd processes
// (ExecFleet), and eventually SSH- or cloud-provisioned hosts — the
// pluggable "how instances are launched" edge of the system (INFaaS /
// KubeAI style).
//
// The contract with the actuator: Launch returns only once the instance
// is accepting controller connections and announcing the right model and
// type in its Hello banner, and Stop is called only after the controller
// has drained and disconnected the instance, so a provider never has to
// worry about in-flight queries.
type Provider interface {
	// Launch starts one instance of typeName hosting model and returns
	// its dialable address once it is ready.
	Launch(model, typeName string) (string, error)
	// Stop tears down the instance at addr.
	Stop(addr string) error
	// Addrs lists the running instances' addresses in unspecified order.
	Addrs() []string
	// Close stops every running instance.
	Close() error
}

// errClosed is what both built-in providers' Launch returns after Close:
// a closed provider must not bring an instance to life nobody will stop.
var errClosed = errors.New("autopilot: provider is closed")

// Reaper is an optional Provider extension for fault handling: Reap
// releases whatever the provider still holds for an instance that died on
// its own — the exec provider reaps the OS process, the in-process fleet
// forgets the server — without the drained-first contract Stop assumes.
// Reaping an address the provider no longer tracks is not an error.
type Reaper interface {
	Reap(addr string) error
}

// reap releases a dead instance through the provider's Reaper extension
// when it has one, falling back to a best-effort Stop.
func reap(p Provider, addr string) error {
	if r, ok := p.(Reaper); ok {
		return r.Reap(addr)
	}
	return p.Stop(addr)
}

// Preemption is a spot-market revocation notice: the capacity market
// reclaims the instance at Addr no later than Deadline. Between notice
// and deadline the instance serves normally — the window exists so a
// control plane can drain it ahead of death.
type Preemption struct {
	// Addr is the doomed instance's dialable address.
	Addr string
	// Deadline is when the instance dies regardless of drain progress.
	Deadline time.Time
}

// Noticer is an optional Provider extension for revocable capacity:
// Notices delivers preemption notices for instances the market is about
// to reclaim. The channel is never closed and may be nil when the
// provider cannot deliver notices. The control loop treats each notice
// as a first-class trigger distinct from death: drain the doomed
// instance immediately, then replan around the hole before the deadline.
type Noticer interface {
	Notices() <-chan Preemption
}

// Preempter is an optional Provider extension for injecting
// revocations: Preempt delivers a notice for the instance at addr and
// schedules its hard kill at the end of the notice window — the exact
// sequence a cloud spot market performs. It returns the kill deadline.
// An instance stopped (drained) before the deadline is simply gone when
// the kill fires. Tests and the soak harness script preemptions through
// this.
type Preempter interface {
	Preempt(addr string, notice time.Duration) (time.Time, error)
}

// spotMarket is the revocation half of both built-in providers: it owns
// the notices channel and plays the sequence a cloud spot market performs
// — notice now, hard kill at the end of the window. Providers embed it
// and supply only how an instance dies.
type spotMarket struct {
	notices chan Preemption
}

func newSpotMarket() spotMarket {
	// Deep enough for every instance of a soak-sized fleet to be revoked
	// between two control ticks without a notice being dropped.
	return spotMarket{notices: make(chan Preemption, 64)}
}

// Notices implements Noticer: the channel preempt announces revocations
// on.
func (m *spotMarket) Notices() <-chan Preemption { return m.notices }

// preempt delivers the notice for addr and schedules kill for the end of
// the window; kill must be a no-op for an instance an orderly Stop (a
// completed drain) removed first. It returns the kill deadline.
func (m *spotMarket) preempt(addr string, notice time.Duration, kill func()) time.Time {
	deadline := time.Now().Add(notice)
	select {
	case m.notices <- Preemption{Addr: addr, Deadline: deadline}:
	default:
		// A stalled consumer loses the notice but never the revocation:
		// the deadline kill below still fires and surfaces as a plain
		// instance death.
	}
	time.AfterFunc(notice, kill)
	return deadline
}

// Deploy launches plan[model][i] instances of pool[i] for every model on
// the provider and returns all started addresses. On any launch failure
// it stops what it started.
func Deploy(p Provider, pool cloud.Pool, plan core.FleetPlan) ([]string, error) {
	var addrs []string
	fail := func(err error) ([]string, error) {
		for _, a := range addrs {
			p.Stop(a)
		}
		return nil, err
	}
	for _, model := range plan.Models() {
		cfg := plan[model]
		if len(cfg) != len(pool) {
			return fail(fmt.Errorf("autopilot: config %v for %s does not match pool of %d types", cfg, model, len(pool)))
		}
		for i, n := range cfg {
			for k := 0; k < n; k++ {
				addr, err := p.Launch(model, pool[i].Name)
				if err != nil {
					return fail(err)
				}
				addrs = append(addrs, addr)
			}
		}
	}
	return addrs, nil
}
