package main

import (
	"fmt"
	"sort"

	"kairos"
	"kairos/internal/cloud"
	"kairos/internal/ingress"
	"kairos/internal/models"
	"kairos/internal/server"
)

// policyName is the dispatch policy every workload runs under: the
// paper's matching policy, never the benchmark-only LeastBacklog.
const policyName = "kairos+warm"

// benchPool is the two-type pool every fleet is drawn from; index 0 is
// the base (GPU) type, as cloud.Pool requires.
var benchPool = cloud.Pool{cloud.G4dnXlarge, cloud.R5nLarge}

// maxQueue is the ingress admission bound: high enough that no workload
// sheds (the deepest queue is burst-deep's, a few thousand).
const maxQueue = 65536

// fleetSpec is one model's share of the fleet.
type fleetSpec struct {
	model      models.Model
	gpus, cpus int
}

// stackSpec describes the system under test.
type stackSpec struct {
	scale  float64 // wall seconds per model second; 1.0 is real time
	fleets []fleetSpec
	http   bool // serve the HTTP endpoint instead of binary TCP
}

// usdPerHour is the fleet's on-demand price.
func (s stackSpec) usdPerHour() float64 {
	total := 0.0
	for _, f := range s.fleets {
		total += benchPool.Cost(cloud.Config{f.gpus, f.cpus})
	}
	return total
}

func (s stackSpec) modelNames() []string {
	out := make([]string, len(s.fleets))
	for i, f := range s.fleets {
		out[i] = f.model.Name
	}
	sort.Strings(out)
	return out
}

// stack is the real serving path booted in-process on loopback TCP:
// instance servers ← binary wire ← controller (kairos+warm per model) ←
// ingress. tracers is nil on an untraced boot.
type stack struct {
	servers []*server.InstanceServer
	ctrl    *server.Controller
	ing     *ingress.Server
	tracers []*assignTracer
}

// boot starts the stack. With traced set, every model's policy is wrapped
// in the timing decorator and the controller samples every query.
func boot(spec stackSpec, traced bool, seed int64) (*stack, error) {
	st := &stack{}
	var addrs []string
	groups := make(map[string]server.GroupSpec, len(spec.fleets))
	for _, f := range spec.fleets {
		for i := 0; i < f.gpus+f.cpus; i++ {
			tn := benchPool[0].Name
			if i >= f.gpus {
				tn = benchPool[1].Name
			}
			s, err := server.NewInstanceServer(tn, f.model, spec.scale)
			if err != nil {
				st.close()
				return nil, err
			}
			if err := s.Start("127.0.0.1:0"); err != nil {
				st.close()
				return nil, err
			}
			st.servers = append(st.servers, s)
			addrs = append(addrs, s.Addr())
		}
		policy, err := kairos.NewPolicy(policyName, kairos.PolicyContext{Pool: benchPool, Model: f.model})
		if err != nil {
			st.close()
			return nil, err
		}
		if traced {
			tr := newAssignTracer(f.model, policy)
			st.tracers = append(st.tracers, tr)
			policy = tr
		}
		groups[f.model.Name] = server.GroupSpec{Policy: policy, Predict: f.model.Latency}
	}
	ctrl, err := server.NewMultiController(groups, spec.scale, addrs)
	if err != nil {
		st.close()
		return nil, err
	}
	st.ctrl = ctrl
	if traced {
		ctrl.SetTraceSampling(1, uint64(seed))
	} else {
		ctrl.SetTraceSampling(0, 0)
	}
	opts := ingress.Options{MaxQueue: maxQueue}
	if spec.http {
		opts.HTTPAddr = "127.0.0.1:0"
	} else {
		opts.TCPAddr = "127.0.0.1:0"
	}
	if st.ing, err = ingress.New(ctrl, opts); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// close tears the stack down front to back; safe on a partial boot.
func (st *stack) close() {
	if st.ing != nil {
		st.ing.Close()
	}
	if st.ctrl != nil {
		st.ctrl.Close()
	}
	for _, s := range st.servers {
		s.Close()
	}
}

// refusals sums the ingress's queue-full and rate-limit rejections.
func (st *stack) refusals() (rejected, rateLimited int64) {
	for _, in := range st.ing.Stats() {
		rejected += in.Rejected
		rateLimited += in.RateLimited
	}
	return rejected, rateLimited
}

// ledger is the conservation check run when a workload ends: what the
// client sent must be what the ingress admitted and what the controller
// accepted and finished, with nothing left inside.
type ledger struct {
	Sent              int64 `json:"sent"`
	IngressAdmitted   int64 `json:"ingress_admitted"`
	IngressRejected   int64 `json:"ingress_rejected"`
	IngressRateLimit  int64 `json:"ingress_rate_limited"`
	IngressUnrouted   int64 `json:"ingress_unrouted"`
	CtrlSubmitted     int64 `json:"controller_submitted"`
	CtrlCompleted     int64 `json:"controller_completed"`
	CtrlFailed        int64 `json:"controller_failed"`
	CtrlWaiting       int   `json:"controller_waiting"`
	Outstanding       int   `json:"controller_outstanding"`
	IngressQueueDepth int64 `json:"ingress_queue"`
}

// audit reads the public counters after the client has seen its last
// reply and reports the first broken conservation law.
func (st *stack) audit(sent int64) (ledger, error) {
	s := st.ctrl.Stats()
	l := ledger{
		Sent:            sent,
		IngressUnrouted: s.IngressUnrouted,
		CtrlSubmitted:   s.Submitted,
		CtrlCompleted:   s.Completed,
		CtrlFailed:      s.Failed,
		CtrlWaiting:     s.Waiting,
		Outstanding:     len(st.ctrl.OutstandingQueries()),
	}
	for _, in := range s.Ingress {
		l.IngressAdmitted += in.Submitted
		l.IngressRejected += in.Rejected
		l.IngressRateLimit += in.RateLimited
		l.IngressQueueDepth += in.Queue
	}
	switch {
	case l.IngressAdmitted+l.IngressRejected+l.IngressRateLimit+l.IngressUnrouted != sent:
		return l, fmt.Errorf("ingress admitted+rejected (%d+%d+%d+%d) != sent %d",
			l.IngressAdmitted, l.IngressRejected, l.IngressRateLimit, l.IngressUnrouted, sent)
	case l.CtrlSubmitted != l.IngressAdmitted:
		return l, fmt.Errorf("controller submitted %d != ingress admitted %d", l.CtrlSubmitted, l.IngressAdmitted)
	case l.CtrlCompleted+l.CtrlFailed != l.CtrlSubmitted:
		return l, fmt.Errorf("controller completed+failed (%d+%d) != submitted %d", l.CtrlCompleted, l.CtrlFailed, l.CtrlSubmitted)
	case l.Outstanding != 0 || l.CtrlWaiting != 0 || l.IngressQueueDepth != 0:
		return l, fmt.Errorf("queries left inside: %d outstanding, %d waiting, %d in the ingress queue",
			l.Outstanding, l.CtrlWaiting, l.IngressQueueDepth)
	}
	return l, nil
}
