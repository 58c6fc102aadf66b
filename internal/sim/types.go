// Package sim is the serving substrate of the reproduction: a deterministic
// discrete-event simulator of a heterogeneous pool of inference servers fed
// by a central controller, the role played by real EC2 instances plus gRPC
// in the paper's testbed (Sec. 6). It also provides the allowable-throughput
// finder ("gradually increase the arrival rate of queries until the QoS is
// violated", Sec. 7) and the ORCL oracle evaluator.
package sim

import (
	"fmt"
	"math/rand"

	"kairos/internal/cloud"
	"kairos/internal/models"
)

// Query is one inference request batch traveling through the system.
type Query struct {
	// ID is a dense sequence number in arrival order.
	ID int
	// Batch is the number of requests batched into the query.
	Batch int
	// ArrivalMS is the submission time.
	ArrivalMS float64
	// StartMS/FinishMS are filled in when the query is served.
	StartMS, FinishMS float64
	// Instance is the index of the serving instance, -1 before dispatch.
	Instance int
}

// Latency is the end-to-end time the user observed.
func (q *Query) Latency() float64 { return q.FinishMS - q.ArrivalMS }

// QueryView is the read-only projection of a waiting query handed to
// distributors.
type QueryView struct {
	// Index is the query's position in this round's waiting queue; it is
	// what Assignment.Query refers to. The caller renumbers its queue every
	// round, so the same query may carry another Index next round.
	Index int
	// Batch is the query's batch size.
	Batch int
	// WaitMS is the time spent waiting in the central queue so far (the
	// paper's W_i, Eq. 3).
	WaitMS float64
}

// InstanceView is the read-only projection of an instance handed to
// distributors.
type InstanceView struct {
	// Index identifies the instance; it is what Assignment.Instance refers to.
	Index int
	// TypeName is the cloud instance type, e.g. "g4dn.xlarge".
	TypeName string
	// RemainingMS is the time until the in-flight query finishes (0 when
	// idle). The controller tracks this accurately (Sec. 6).
	RemainingMS float64
	// QueuedBatches lists the batch sizes already dispatched to the
	// instance's local queue, in service order.
	QueuedBatches []int
}

// Backlog reports how many queries are dispatched but unfinished at the
// instance (in-flight plus locally queued).
func (v InstanceView) Backlog() int {
	n := len(v.QueuedBatches)
	if v.RemainingMS > 0 {
		n++
	}
	return n
}

// Assignment dispatches waiting query Query to instance Instance.
type Assignment struct {
	Query    int
	Instance int
}

// Distributor is a query-distribution policy: at each scheduling point it
// inspects the waiting queries and the instances and proposes dispatches.
// Implementations decide their own queueing discipline: Kairos-style
// policies dispatch at most one query to an empty-backlog instance, while
// CLKWRK-style policies push every query into per-instance FCFS queues.
//
// A policy sees each query only through this round's QueryView. Its Index
// is a position in this round's queue, renumbered every round, and it is
// the only query identity a policy gets: keep no state across rounds keyed
// on it.
type Distributor interface {
	// Name identifies the policy in reports.
	Name() string
	// Assign proposes dispatches. Queries may be left waiting; the engine
	// re-invokes Assign at the next scheduling point. Each waiting query may
	// appear at most once in the result. The result belongs to the
	// distributor and is valid only until its next Assign (the matching
	// policies return their round's scratch): callers consume it before
	// scheduling again and copy what they keep.
	Assign(nowMS float64, waiting []QueryView, instances []InstanceView) []Assignment
}

// Observer receives ground-truth service feedback after each query
// completes, letting online components (Kairos's latency learner) train
// without prior knowledge. Distributors may optionally implement it.
type Observer interface {
	Observe(instance string, batch int, serviceMS float64)
}

// Horizon is optionally implemented by a Distributor that penalises, on
// every instance, a query that has waited longer than HorizonMS: Kairos's
// Eq. 8 deadline, which no completion after that wait can meet. A round
// shows such a policy only the oldest ni+1 of these late queries among ni
// instances (Round.Match). That is exact for a policy that, among equally
// penalised queries, considers at most ni and the oldest first, as
// Kairos's pruning does; the one more keeps the queries outnumbering the
// instances whenever they did, so the policy solves the same matrix.
type Horizon interface {
	HorizonMS() float64
}

// ClusterSpec fully describes the simulated deployment.
type ClusterSpec struct {
	// Pool is the ordered set of instance types.
	Pool cloud.Pool
	// Config gives the number of instances per pool type.
	Config cloud.Config
	// Model is the served ML model (QoS target and latency surface).
	Model models.Model
	// Noise, when positive, multiplies every true service time by
	// 1 + N(0, Noise), clamped at a tenth of the clean time: the cloud's
	// performance variability, which predictors do not see (Fig. 16b uses
	// 0.05). Every run draws from its own stream seeded by NoiseSeed, so a
	// spec measured twice gives one answer and every probe of a search
	// sees the same noise (common random numbers).
	Noise     float64
	NoiseSeed int64
}

// serviceTimes returns one run's ground-truth service-time source: the
// model's surface, perturbed by a fresh stream of the spec's noise.
func (s ClusterSpec) serviceTimes() func(instance string, batch int) float64 {
	if s.Noise <= 0 {
		return s.Model.Latency
	}
	rng := rand.New(rand.NewSource(s.NoiseSeed))
	return func(instance string, batch int) float64 {
		return s.Model.Latency(instance, batch) * max(1+rng.NormFloat64()*s.Noise, 0.1)
	}
}

// InstanceTypes expands the configuration into one type name per instance,
// in pool order: e.g. (2,0,1) over {G1,C1,C2} yields [G1 G1 C2].
func (s ClusterSpec) InstanceTypes() []string {
	if len(s.Config) != len(s.Pool) {
		panic(fmt.Sprintf("sim: config %v does not match pool of %d types", s.Config, len(s.Pool)))
	}
	var out []string
	for i, n := range s.Config {
		for k := 0; k < n; k++ {
			out = append(out, s.Pool[i].Name)
		}
	}
	return out
}
