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
// in-process loopback servers and exec'd kairosd processes (both a Fleet,
// with different launchers), and eventually SSH- or cloud-provisioned
// hosts — the pluggable "how instances are launched" edge of the system
// (INFaaS / KubeAI style). It is one contract with no optional
// extensions: a provider that cannot deliver preemption notices returns a
// nil channel, and one with nothing to release for a dead instance
// returns nil from Reap.
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
	// Reap releases whatever the provider still holds for an instance
	// that died on its own, without the drained-first contract Stop
	// assumes. Reaping an address the provider no longer tracks is not an
	// error.
	Reap(addr string) error
	// Notices delivers preemption notices for instances the market is
	// about to reclaim. The channel is never closed and may be nil when
	// the provider cannot deliver notices. The control loop treats each
	// notice as a first-class trigger distinct from death: drain the
	// doomed instance immediately, then replan around the hole before
	// the deadline.
	Notices() <-chan Preemption
	// TimeScale is the time dilation the instances serve at; it must
	// match the deployment's, or every latency, rate and utilization
	// reading would be skewed.
	TimeScale() float64
	// Addrs lists the running instances' addresses in unspecified order.
	Addrs() []string
	// Close stops every running instance.
	Close() error
}

// errClosed is what Fleet.Launch returns after Close: a closed provider
// must not bring an instance to life nobody will stop.
var errClosed = errors.New("autopilot: provider is closed")

// Preemption is a spot-market revocation notice: the capacity market
// reclaims the instance at Addr no later than Deadline. Between notice
// and deadline the instance serves normally — the window exists so a
// control plane can drain it ahead of death.
type Preemption struct {
	// Addr is the doomed instance's dialable address.
	Addr string
	// Model is the model the doomed instance serves.
	Model string
	// Deadline is when the instance dies regardless of drain progress.
	Deadline time.Time
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
