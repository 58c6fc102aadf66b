package kairos

import (
	"kairos/internal/metrics"
	"kairos/internal/server"
)

// Re-exported real-process serving and measurement types, so the cmd tools
// and examples drive the Sec. 6 network path without importing internal
// packages.
type (
	// InstanceServer is one emulated inference instance: it binds a TCP
	// port, announces its instance type, model and wire version, and
	// serves one batched query at a time with the calibrated latency
	// (cmd/kairosd).
	InstanceServer = server.InstanceServer
	// Controller is the central query controller speaking the framed
	// protocol to running instance servers. It is sharded per model (one
	// scheduler goroutine and lock per served model) and refuses an
	// instance that announces another wire version; closed-loop callers
	// should prefer SubmitWait, which recycles per-query bookkeeping.
	Controller = server.Controller
	// QueryResult reports one completed query on the network path.
	QueryResult = server.QueryResult
	// ControllerStats is the controller's accounting snapshot — the shared
	// observability surface of kairosctl and the autopilot.
	ControllerStats = server.Stats
	// ControllerModelStats is one model group's accounting snapshot.
	ControllerModelStats = server.ModelStats
	// InstanceStats is one connected instance's cumulative accounting.
	InstanceStats = server.InstanceStats
	// IngressStats is one model's external front-end accounting, merged
	// into ControllerStats when an ingress is attached.
	IngressStats = server.IngressStats
	// GroupSpec describes one served model's scheduling group for callers
	// assembling controllers by hand (see server.NewMultiController).
	GroupSpec = server.GroupSpec
	// LatencyRecorder accumulates latency samples and reports percentiles.
	LatencyRecorder = metrics.LatencyRecorder
)

// NewInstanceServer builds an emulated instance server for one instance
// type serving one model. timeScale dilates real time (0.1 = 10x faster
// than model time).
func NewInstanceServer(typeName string, model Model, timeScale float64) (*InstanceServer, error) {
	return server.NewInstanceServer(typeName, model, timeScale)
}

// NewLatencyRecorder creates a latency recorder with a capacity hint.
func NewLatencyRecorder(capacityHint int) *LatencyRecorder {
	return metrics.NewLatencyRecorder(capacityHint)
}

// Connect dials running instance servers (see NewInstanceServer and
// cmd/kairosd) and returns a central controller distributing real queries
// — the live counterpart of Evaluate. One scheduler group is built per
// served model, each running a fresh instance of the engine's policy wired
// to that model's monitor; every dialed instance joins the group of the
// model its banner announces, and queries are submitted per model
// (Controller.Submit). timeScale must match the daemons'. Close the
// controller when done.
func (e *Engine) Connect(timeScale float64, addrs []string) (*Controller, error) {
	groups := make(map[string]server.GroupSpec, len(e.models))
	for _, m := range e.models {
		policy, err := NewPolicy(e.policy, e.policyContextFor(m, e.monitors[m.Name]))
		if err != nil {
			return nil, err
		}
		groups[m.Name] = server.GroupSpec{Policy: policy, Predict: m.Latency}
	}
	return server.NewMultiController(groups, timeScale, addrs)
}
