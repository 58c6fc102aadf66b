package server

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"kairos/internal/obs"
)

// instanceState is where an instance is in the one lifecycle every member
// walks (DESIGN.md, "Shard and lock model"); setState alone moves it:
//
//	new ──admit──▶ active ──beginDrain──▶ draining ──drain──▶ gone
//	                  └────────evict──────────┴──▶ gone (+ onDown)
type instanceState uint8

const (
	stateNew      instanceState = iota // dialed, not yet a member
	stateActive                        // dispatchable
	stateDraining                      // member, but receives no new work
	stateGone                          // left the fleet, link closed
)

// remoteInstance is one dialed instance server. Mutable fields are
// guarded by the owning group's mu; the link has its own write lock, so
// network writes happen outside the group lock.
type remoteInstance struct {
	model    string
	typeName string
	addr     string
	link     link
	// state is written by setState alone.
	state instanceState
	// drained is closed once the instance is past active with nothing
	// pending: what an orderly removal waits for.
	drained chan struct{}

	// backlog is pending's predicted service; busyUntil is when it should end.
	busyUntil time.Time
	backlog   time.Duration
	// pending holds dispatched-but-unfinished queries in dispatch order;
	// byID indexes them for O(1) reply correlation.
	pending    []*pendingQuery
	byID       map[int64]*pendingQuery
	dispatched int64
	completed  int64
	// busyMS accumulates ground-truth service time (model ms) from replies.
	busyMS float64
	// needsFlush marks the instance as touched by the current dispatch
	// burst; only the group's scheduler goroutine uses it.
	needsFlush bool
	// serveHist and typeID are the flight recorder's per-instance-type
	// hooks, resolved once at dial time so the reply path records with a
	// cached pointer and stores an interned int.
	serveHist *obs.Histogram
	typeID    int
}

// membership is a group's fleet, guarded by the group's mu.
type membership struct {
	// instances holds the active and draining members in join order.
	instances []*remoteInstance
	// nactive counts the active ones, so Submit's capacity check is O(1).
	nactive int
	// ring is the session-affinity hash ring over the active instances.
	ring affinityRing
}

// setState moves ri along its lifecycle, keeps the fleet slice and the
// active count in step and marks the ring stale. Callers hold the group's mu.
func (m *membership) setState(ri *remoteInstance, s instanceState) {
	if ri.state == stateActive {
		m.nactive--
	}
	ri.state = s
	switch s {
	case stateActive:
		m.instances = append(m.instances, ri)
		m.nactive++
	case stateGone:
		if i := slices.Index(m.instances, ri); i >= 0 {
			m.instances = slices.Delete(m.instances, i, i+1)
		}
	}
	ri.settled()
	clear(m.ring.entries) // a ring nobody rebuilds must not pin a member that left
	m.ring.entries, m.ring.stale = m.ring.entries[:0], true
}

// settled closes drained once ri is past active and holds nothing; the
// round calls it whenever pending empties. Callers hold the group's mu.
func (ri *remoteInstance) settled() {
	if ri.state < stateDraining || len(ri.pending) > 0 {
		return
	}
	select {
	case <-ri.drained:
	default:
		close(ri.drained)
	}
}

// beginDrain starts an orderly removal: among the active instances match
// accepts it picks the one with the shallowest backlog and stops new
// dispatches to it. nil when nothing matches.
func (g *modelGroup) beginDrain(match func(*remoteInstance) bool) *remoteInstance {
	g.mu.Lock()
	var target *remoteInstance
	for _, ri := range g.instances {
		if ri.state == stateActive && match(ri) && (target == nil || len(ri.pending) < len(target.pending)) {
			target = ri
		}
	}
	if target != nil {
		g.setState(target, stateDraining)
	}
	g.mu.Unlock()
	if target != nil {
		g.wake() // re-dispatch anything the policy was routing here
	}
	return target
}

// drain finishes what beginDrain started: it blocks until every query
// already dispatched to ri has been delivered through the normal reply
// path, then retires the instance and closes its link. died reports that
// a fault retired it first — evict has then requeued its backlog,
// reported the fault and closed the link.
func (c *Controller) drain(g *modelGroup, ri *remoteInstance) (died bool, err error) {
	select {
	case <-ri.drained:
	case <-c.closed:
		return false, errors.New("server: controller closed during drain")
	}
	g.mu.Lock()
	if died = ri.state == stateGone; !died {
		// Gone before the link closes: the read loop's evict must find an
		// already-retired instance, or this orderly removal would be
		// reported as a fault.
		g.setState(ri, stateGone)
	}
	g.mu.Unlock()
	if !died {
		ri.link.close()
		g.wake() // the round fails or parks what a now-empty group cannot serve
	}
	return died, nil
}

// evict is the one fault exit: a dead instance leaves the fleet and its
// in-flight queries go back to the head of the central queue for
// redispatch to surviving capacity — an instance crash must not drop
// admitted queries. The read loop calls it when the connection dies and
// the round when a dispatch write fails; whichever notices first retires
// the instance, the other finds it gone. The instance-down callback fires
// last, outside the lock, so a control plane can reap the process and heal
// the fleet. After Close the cleanup is Close's.
func (c *Controller) evict(ri *remoteInstance, cause error) {
	g := c.groups[ri.model]
	g.mu.Lock()
	if ri.state == stateGone || c.isClosed() {
		g.mu.Unlock()
		return
	}
	// Head of the queue, original enqueue times intact: redispatched
	// queries keep their accumulated wait for latency accounting and
	// scheduling priority. Inserted in place, so a fault at depth keeps the
	// queue's grown array.
	g.waiting = slices.Insert(g.waiting, 0, ri.strand()...)
	g.setState(ri, stateGone)
	g.mu.Unlock()
	ri.link.close()
	g.wake()
	if cb := c.onDown.Load(); cb != nil {
		(*cb)(ri.model, ri.typeName, ri.addr, cause)
	}
}

// RemoveInstance drains and disconnects one instance of the given type
// from the model's group: the instance stops receiving new dispatches
// immediately, every already-dispatched query completes and is delivered
// normally, and only then is the connection closed and the instance
// dropped from the fleet. Among removable candidates it picks the one with
// the shallowest backlog. It blocks until the drain finishes and returns
// the removed instance's dialed address so launchers can stop the matching
// server.
func (c *Controller) RemoveInstance(model, typeName string) (string, error) {
	g, ok := c.groups[model]
	if !ok {
		return "", fmt.Errorf("server: controller does not serve model %q (have %v)", model, c.order)
	}
	ri := g.beginDrain(func(ri *remoteInstance) bool { return ri.typeName == typeName })
	if ri == nil {
		return "", fmt.Errorf("server: no removable instance of type %s serving %s", typeName, model)
	}
	if _, err := c.drain(g, ri); err != nil {
		return "", err
	}
	return ri.addr, nil
}

// RemoveInstanceAddr is RemoveInstance keyed by instance address — the
// drain-ahead-of-death path a preemption notice takes, where the doomed
// instance is known exactly rather than picked by type. It reports the
// instance's model and type so the caller can replan around the hole.
// died reports that the instance died mid-drain (a preemption deadline or
// another fault closed its connection first): the caller should fall back
// to fault healing instead of an orderly stop.
func (c *Controller) RemoveInstanceAddr(addr string) (model, typeName string, died bool, err error) {
	for _, name := range c.order {
		g := c.groups[name]
		if ri := g.beginDrain(func(ri *remoteInstance) bool { return ri.addr == addr }); ri != nil {
			if died, err = c.drain(g, ri); err != nil {
				return "", "", false, err
			}
			return ri.model, ri.typeName, died, nil
		}
	}
	return "", "", false, fmt.Errorf("server: no removable instance at %s", addr)
}

// members calls fn on every member of the named groups, in the order
// given then fleet order, under each group's lock.
func (c *Controller) members(models []string, fn func(*remoteInstance)) {
	for _, model := range models {
		if g, ok := c.groups[model]; ok {
			g.mu.Lock()
			for _, ri := range g.instances {
				fn(ri)
			}
			g.mu.Unlock()
		}
	}
}

// activeCounts counts the named groups' active instances per type.
func (c *Controller) activeCounts(models ...string) map[string]int {
	out := make(map[string]int)
	c.members(models, func(ri *remoteInstance) {
		if ri.state == stateActive {
			out[ri.typeName]++
		}
	})
	return out
}

// InstanceTypes lists the connected instance types in model-then-fleet
// order, including draining ones.
func (c *Controller) InstanceTypes() (out []string) {
	c.members(c.order, func(ri *remoteInstance) { out = append(out, ri.typeName) })
	return out
}

// InstanceCounts returns the number of non-draining instances per type
// across every model — the aggregate fleet the schedulers can use.
func (c *Controller) InstanceCounts() map[string]int { return c.activeCounts(c.order...) }

// ModelInstanceCounts returns the number of non-draining instances per
// type serving one model — the fleet that model's scheduler can use.
func (c *Controller) ModelInstanceCounts(model string) map[string]int { return c.activeCounts(model) }
