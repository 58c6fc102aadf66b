package server

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"kairos/internal/cloud"
	"kairos/internal/models"
	"kairos/internal/sim"
)

// The production round, membership and accounting code under a fake clock
// and in-memory links: no socket, no sleep, no scheduler goroutine. The
// test plays the scheduler loop itself (run a round when kicked, a due
// deadline alarm being one kick), drives seeded random op sequences, and
// after every step compares the controller with a small reference model.
// A failing seed prints its op log and the command that replays it.

var simSeed = flag.Int64("sim.seed", 0, "run TestRoundSim on this one seed instead of the fixed list")

var (
	errMemLink   = errors.New("memlink: write failed")
	errMemClosed = errors.New("memlink: read on a closed link")
)

// memLink is an in-memory link with the production link's contract:
// queue and flush never fail. A failing write kills the link instead —
// what it held is lost and it closes — and its reader, played by the test
// (readers), evicts the instance naming the write failure, not its own
// closed read. Only the test goroutine queues, flushes and reads the
// inbox; close may come from a drain goroutine.
type memLink struct {
	once      sync.Once
	closed    chan struct{}
	failQueue bool  // the next frame queued fails the writer (a backlog past the cap)
	failFlush bool  // the next write fails (a write error or deadline)
	died      error // the write failure that killed the link, nil while it lives
	reaped    bool  // its reader has seen the link die
	flushes   int
	onQueue   func()    // runs inside queue: something happening mid-round
	queued    []Request // written, not flushed: the instance cannot see these
	inbox     []Request // flushed and not yet replied to, in arrival order
}

func (l *memLink) queue(r Request) {
	if l.died != nil {
		return
	}
	if l.failQueue {
		l.die()
		return
	}
	l.queued = append(l.queued, r)
	if l.onQueue != nil {
		l.onQueue()
	}
}

func (l *memLink) flush() {
	l.flushes++
	if l.died != nil {
		return
	}
	if l.failFlush {
		l.die()
		return
	}
	l.inbox = append(l.inbox, l.queued...)
	l.queued = l.queued[:0]
}

// die is the writer's failure: sticky, the backlog dropped, the link
// closed under its reader.
func (l *memLink) die() {
	l.died = errMemLink
	l.queued = nil
	l.close()
}

// cause is what the link's reader names when its read fails with err: the
// write failure that closed the link, if one did (Writer.Cause).
func (l *memLink) cause(err error) error {
	if l.died != nil {
		return l.died
	}
	return err
}

func (l *memLink) close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

type simDrain struct {
	died bool
	err  error
}

type simInst struct {
	addr, typeName string
	link           *memLink
	ri             *remoteInstance
	state          instanceState // the model's view of the lifecycle
	drain          chan simDrain // a Remove* call in flight
	byAddr         bool          // ... which reports died
	wantDied       bool          // ... and must report this
}

// simSink is a submission's completion sink. Everything in the sim that
// may deliver — rounds, replies, evictions, Close — runs on the test
// goroutine, so plain fields do (and -race says so if that stops holding).
type simSink struct {
	fired   int
	res     QueryResult
	checked bool // the model has accounted for the delivery
}

func (s *simSink) QueryDone(res QueryResult) { s.fired++; s.res = res }

type simQuery struct {
	sink     *simSink
	deadline time.Time
}

// simWorld is the harness plus the reference model. The model is the
// fields below `model:` and the ref* methods: ids and admission, where
// every live query may be, what each instant must fail, and who must have
// been reported down.
type simWorld struct {
	t    *testing.T
	seed int64
	rng  *rand.Rand
	ops  []string

	c   *Controller
	g   *modelGroup
	now time.Time
	// alarms are the deadline alarms submit (the clock-reading shell this
	// test bypasses) would have armed: one kick at each deadline.
	alarms []time.Time
	// holding: the instance-down observer keeps each eviction's hold in
	// held, where the release op finds it with the Hold op's, instead of
	// releasing it at once (odd seeds).
	holding bool
	held    []func()
	insts   []*simInst
	downs   map[string]int // observed onDown calls per address
	sinks   []*simSink     // one per submission, admitted or not
	// rebuilds counts the wake-ups that found the affinity ring stale and
	// left it derived: the test's count of ring rebuilds (exact while no
	// wake-up both rebuilds and evicts).
	rebuilds int
	// lag is how long before w.now the next submitter read the clock.
	lag time.Duration

	// model:
	nextID                       int64
	live                         map[int64]*simQuery // admitted, not delivered
	submitted, completed, failed int64
	holds                        int // outstanding: an empty group fails its queue only at 0
	wantDowns                    map[string]int
}

const simModel = "NCF"

func newSimWorld(t *testing.T, seed int64) *simWorld {
	m := models.MustByName(simModel)
	c, err := newController(map[string]GroupSpec{simModel: {Policy: &sim.LeastLoaded{}, Predict: m.Latency}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := &simWorld{
		t: t, seed: seed, rng: rand.New(rand.NewSource(seed)),
		c: c, g: c.groups[simModel], now: time.Unix(1_700_000_000, 0),
		downs: map[string]int{}, wantDowns: map[string]int{}, live: map[int64]*simQuery{},
	}
	w.holding = seed%2 == 1
	c.SetOnInstanceDown(func(_, _, addr string, _ error, release func()) {
		w.downs[addr]++
		if w.holding {
			w.held = append(w.held, release)
		} else {
			release() // a heal that returned at once without capacity
		}
	})
	return w
}

func (w *simWorld) logf(format string, args ...any) {
	w.ops = append(w.ops, fmt.Sprintf("%4d +%-6v ", len(w.ops), w.now.Sub(time.Unix(1_700_000_000, 0)))+fmt.Sprintf(format, args...))
}

func (w *simWorld) fatalf(format string, args ...any) {
	w.t.Helper()
	tail := w.ops
	if len(tail) > 40 {
		tail = tail[len(tail)-40:]
	}
	w.t.Fatalf("seed %d: %s\nreplay: go test ./internal/server -run 'TestRoundSim$' -sim.seed=%d\nlast ops:\n%s",
		w.seed, fmt.Sprintf(format, args...), w.seed, strings.Join(tail, "\n"))
}

// members returns the model's members, optionally only the active ones.
func (w *simWorld) members(activeOnly bool) (out []*simInst) {
	for _, in := range w.insts {
		if in.state == stateActive || (!activeOnly && in.state == stateDraining) {
			out = append(out, in)
		}
	}
	return out
}

// --- ops ---

func (w *simWorld) join() {
	types := []string{cloud.G4dnXlarge.Name, cloud.R5nLarge.Name}
	in := &simInst{
		addr:     fmt.Sprintf("mem-%d", len(w.insts)),
		typeName: types[w.rng.Intn(len(types))],
		link:     &memLink{closed: make(chan struct{})},
		state:    stateActive,
	}
	in.ri = &remoteInstance{
		model: simModel, typeName: in.typeName, addr: in.addr, link: in.link,
		drained:   make(chan struct{}),
		serveHist: w.c.obs.Model(simModel).ServeHist(in.typeName), typeID: w.c.obs.Intern(in.typeName),
	}
	w.logf("join %s (%s)", in.addr, in.typeName)
	// The reader stands in for a read loop: it lives until the link closes,
	// so Close returning proves no reader outlives it.
	if err := w.c.admit(in.ri, func() { <-in.link.closed }); err != nil {
		w.fatalf("admit: %v", err)
	}
	w.insts = append(w.insts, in)
}

func (w *simWorld) submit() {
	var opts SubmitOptions
	if w.rng.Intn(2) == 0 {
		opts.SessionHash = SessionHash([]byte{byte('a' + w.rng.Intn(4))})
	}
	if w.rng.Intn(3) == 0 {
		opts.Deadline = w.now.Add(time.Duration(w.rng.Intn(40)) * time.Millisecond)
	}
	w.submitWith(opts)
}

func (w *simWorld) submitWith(opts SubmitOptions) {
	sink := &simSink{}
	w.sinks = append(w.sinks, sink)
	admitted := w.c.enqueue(simModel, 1+w.rng.Intn(64), opts, sink, w.now.Add(-w.lag)) != nil
	w.lag = 0
	w.submitted++
	if rejected := len(w.members(true)) == 0 && w.holds == 0; rejected == admitted {
		w.fatalf("enqueue admitted=%v, model says rejected=%v", admitted, rejected)
	} else if rejected {
		w.logf("submit -> rejected (no capacity)")
		w.failed++
		w.wantResult(sink, "no serving capacity")
		return
	}
	w.nextID++
	w.live[w.nextID] = &simQuery{sink: sink, deadline: opts.Deadline}
	if opts.Deadline.After(w.now) {
		w.alarms = append(w.alarms, opts.Deadline)
	}
	w.logf("submit #%d session=%v deadline=%v", w.nextID, opts.SessionHash != 0, !opts.Deadline.IsZero())
}

// lateSubmit is a submitter that read the clock up to 5 ms before another
// one took the group's lock ahead of it.
func (w *simWorld) lateSubmit() {
	w.lag = time.Duration(1+w.rng.Intn(5)) * time.Millisecond
	w.submit()
}

func (w *simWorld) advance() {
	d := time.Duration(1+w.rng.Intn(30)) * time.Millisecond
	w.now = w.now.Add(d)
	w.logf("advance %v", d)
}

// hold takes a hold, as a control plane does ahead of a preemption drain.
func (w *simWorld) hold() {
	w.held = append(w.held, w.c.Hold(simModel))
	w.holds++
	w.logf("hold (%d outstanding)", w.holds)
}

// release ends one outstanding hold, an eviction's or hold's, as a
// control plane does once its heal returns; sometimes twice, as a
// careless one might.
func (w *simWorld) release() {
	if len(w.held) == 0 {
		return
	}
	i := w.rng.Intn(len(w.held))
	release := w.held[i]
	w.held = slices.Delete(w.held, i, i+1)
	for range 1 + w.rng.Intn(2) {
		release()
	}
	w.holds--
	w.logf("release (%d outstanding)", w.holds)
}

// reply answers one request an instance holds: the oldest, or (out of
// order) the newest.
func (w *simWorld) reply(outOfOrder bool) {
	var holders []*simInst
	for _, in := range w.members(false) {
		if len(in.link.inbox) > 0 {
			holders = append(holders, in)
		}
	}
	if len(holders) == 0 {
		return
	}
	in := holders[w.rng.Intn(len(holders))]
	k := 0
	if outOfOrder {
		k = len(in.link.inbox) - 1
	}
	req := in.link.inbox[k]
	in.link.inbox = append(in.link.inbox[:k], in.link.inbox[k+1:]...)
	w.logf("reply %s #%d", in.addr, req.ID)
	w.c.complete(in.ri, Reply{ID: req.ID, ServiceMS: 1}, w.now)
	// The instance starts its next query as it answers: the busy clock
	// restarts at the reply with exactly the backlog still pending.
	w.g.mu.Lock()
	want := w.now
	for _, p := range in.ri.pending {
		want = want.Add(w.c.wall(w.g.predict(in.typeName, p.batch)))
	}
	got := in.ri.busyUntil
	w.g.mu.Unlock()
	if !got.Equal(want) {
		w.fatalf("%s busy until +%v after a reply, want the reply instant + its pending's predicted service (+%v)",
			in.addr, got.Sub(w.now), want.Sub(w.now))
	}
	q := w.live[req.ID]
	if q == nil {
		w.fatalf("%s held #%d, which is not live", in.addr, req.ID)
	}
	delete(w.live, req.ID)
	w.completed++
	w.wantResult(q.sink, "")
}

// staleReply: a gone instance's connection coughs up a reply before it
// closes. Nothing may change.
func (w *simWorld) staleReply() {
	for _, in := range w.insts {
		if in.state == stateGone {
			w.logf("stale reply from %s", in.addr)
			w.c.complete(in.ri, Reply{ID: 1 + w.rng.Int63n(w.nextID+1), ServiceMS: 1}, w.now)
			return
		}
	}
}

func (w *simWorld) failWrites() {
	if act := w.members(true); len(act) > 0 {
		in := act[w.rng.Intn(len(act))]
		if w.rng.Intn(2) == 0 {
			in.link.failQueue = true
		} else {
			in.link.failFlush = true
		}
		w.logf("writes to %s fail from now on (queue=%v flush=%v)", in.addr, in.link.failQueue, in.link.failFlush)
	}
}

// kill is what a read loop does when its connection dies; twice, as a
// late second report of the same death would.
func (w *simWorld) kill(in *simInst) {
	w.logf("kill %s", in.addr)
	for i := 0; i <= w.rng.Intn(2); i++ {
		w.c.evict(in.ri, errors.New("killed"))
	}
	w.refEvict(in)
}

// readers plays the read loops of the links a write failure killed: a
// closed link fails its reader's read, and the reader evicts, naming what
// its link says ended it.
func (w *simWorld) readers() {
	for _, in := range w.insts {
		if in.link.died != nil && !in.link.reaped {
			in.link.reaped = true
			w.logf("reader of %s sees its link closed", in.addr)
			w.c.evict(in.ri, in.link.cause(errMemClosed))
		}
	}
}

func (w *simWorld) killRandom() {
	if mem := w.members(false); len(mem) > 0 {
		w.kill(mem[w.rng.Intn(len(mem))])
	}
}

// beginDrain calls the real RemoveInstance / RemoveInstanceAddr on its own
// goroutine and returns once the call has either marked its target
// draining (it kicks the scheduler right after) or returned.
func (w *simWorld) beginDrain(byAddr bool, typeName, addr string) *simInst {
	done := make(chan simDrain, 1)
	go func() {
		if byAddr {
			_, _, died, err := w.c.RemoveInstanceAddr(addr)
			done <- simDrain{died, err}
		} else {
			_, err := w.c.RemoveInstance(simModel, typeName)
			done <- simDrain{false, err}
		}
	}()
	select {
	case <-w.g.kick:
		w.g.wake()
	case r := <-done:
		done <- r
	}
	// The target is whichever member's state the call moved.
	var target *simInst
	w.g.mu.Lock()
	for _, in := range w.members(false) {
		if in.ri.state != in.state {
			target = in
		}
	}
	w.g.mu.Unlock()
	if target == nil {
		r := <-done
		for _, in := range w.members(true) {
			if (byAddr && in.addr == addr) || (!byAddr && in.typeName == typeName) {
				w.fatalf("drain found nothing (%v) but %s is removable", r.err, in.addr)
			}
		}
		if r.err == nil {
			w.fatalf("drain of nothing returned no error")
		}
		return nil
	}
	for _, in := range w.members(true) {
		if !byAddr && in.typeName == typeName && len(in.link.inbox) < len(target.link.inbox) {
			w.fatalf("drain by type picked %s (backlog %d) over %s (backlog %d)",
				target.addr, len(target.link.inbox), in.addr, len(in.link.inbox))
		}
	}
	target.state, target.drain, target.byAddr = stateDraining, done, byAddr
	return target
}

func (w *simWorld) drainRandom(byAddr bool) *simInst {
	act := w.members(true)
	if len(act) == 0 {
		w.logf("drain with no active instance")
		return w.beginDrain(byAddr, cloud.R5nLarge.Name, "mem-none")
	}
	in := act[w.rng.Intn(len(act))]
	w.logf("drain byAddr=%v like %s (%s)", byAddr, in.addr, in.typeName)
	return w.beginDrain(byAddr, in.typeName, in.addr)
}

// drainRacingKill: the preemption deadline lands while the drain still
// waits on its backlog.
func (w *simWorld) drainRacingKill() {
	// Only a drain that is still waiting can lose the race: one with
	// nothing pending may already have returned.
	if in := w.drainRandom(true); in != nil && len(in.link.inbox) > 0 {
		w.kill(in)
	}
}

// --- the scheduler loop, played by the test ---

func (w *simWorld) clock() time.Time { return w.now }

// settle runs the scheduler the way groupLoop would at this instant: once
// per kick (a due deadline alarm is one), with the read loops of links
// that died on a write evicting in between. Whenever it would go back to
// sleep, nothing it wrote may still sit unflushed in a link.
func (w *simWorld) settle() {
	pending := w.alarms[:0]
	for _, at := range w.alarms {
		if at.After(w.now) {
			pending = append(pending, at)
		} else {
			w.g.wake()
		}
	}
	w.alarms = pending
	for i := 0; ; i++ {
		select {
		case <-w.g.kick:
		default:
			return
		}
		w.checkOrder()
		consults, wasStale, fleet := w.ringBefore()
		w.c.schedule(w.g, w.clock)
		w.checkRing(consults, wasStale, fleet)
		w.readers()
		for _, in := range w.insts {
			if n := len(in.link.queued); n > 0 {
				w.fatalf("scheduler went to sleep with %d dispatches to %s unflushed", n, in.addr)
			}
		}
		if i > 1000 {
			w.fatalf("scheduler does not settle")
		}
	}
}

// ringBefore reads, ahead of a wake-up, what decides the affinity ring's
// part in it: whether its first round's affinity pass will consult the ring
// (a session-keyed query survives the sweep and there is someone to
// dispatch to), whether the ring is stale, and who is in the fleet.
func (w *simWorld) ringBefore() (consults, wasStale bool, fleet []*remoteInstance) {
	w.g.mu.Lock()
	defer w.g.mu.Unlock()
	for _, q := range w.g.waiting {
		if q.session != 0 && (q.deadline.IsZero() || w.now.Before(q.deadline)) {
			consults = w.g.nactive > 0
		}
	}
	return consults, w.g.ring.stale, slices.Clone(w.g.instances)
}

// checkRing holds the ring to its contract after a wake-up. Whenever it is
// not stale it is, entry for entry, what a from-scratch rebuild over the
// current fleet yields — so it can only ever yield an active member — and a
// stale ring is empty. And a pass that consulted it consulted it fresh: if
// a session-keyed query was waiting, the wake-up leaves the ring derived
// (unless a drain retired a member meanwhile, which the fleet shows).
func (w *simWorld) checkRing(consults, wasStale bool, fleet []*remoteInstance) {
	w.g.mu.Lock()
	defer w.g.mu.Unlock()
	ring := &w.g.ring
	if ring.stale {
		if len(ring.entries) != 0 {
			w.fatalf("stale ring still holds %d entries", len(ring.entries))
		}
		if consults && slices.Equal(fleet, w.g.instances) {
			w.fatalf("the affinity pass matched a session-keyed query against a stale ring")
		}
		return
	}
	if wasStale {
		w.rebuilds++
	}
	var scratch affinityRing
	scratch.rebuild(w.g.instances)
	if !slices.Equal(ring.entries, scratch.entries) {
		w.fatalf("ring in use (%d entries) is not the from-scratch ring over the active members (%d entries)",
			len(ring.entries), len(scratch.entries))
	}
	for _, e := range ring.entries {
		if e.ri.state != stateActive {
			w.fatalf("ring yields %s, which is not active (state %d)", e.ri.addr, e.ri.state)
		}
	}
}

// membershipBurst opens every run: four membership changes back to back
// sort nothing, the one session-keyed query after them sorts once, and the
// ring that sort built is honoured — the session's next query lands on the
// same instance, the one a from-scratch ring prefers.
func (w *simWorld) membershipBurst() {
	w.step(w.join)
	w.step(w.join)
	w.step(w.join)
	w.step(func() { w.kill(w.insts[0]) })
	w.g.mu.Lock()
	stale := w.g.ring.stale
	w.g.mu.Unlock()
	if !stale || w.rebuilds != 0 {
		w.fatalf("after 4 membership changes and no session query: %d rebuilds, stale=%v; want 0 and a stale ring", w.rebuilds, stale)
	}
	session := SubmitOptions{SessionHash: SessionHash([]byte("burst"))}
	w.step(func() { w.submitWith(session) })
	if w.rebuilds != 1 {
		w.fatalf("4 membership changes then one session query cost %d ring rebuilds, want exactly 1", w.rebuilds)
	}
	w.step(func() { w.submitWith(session) })
	w.g.mu.Lock()
	var scratch affinityRing
	scratch.rebuild(w.g.instances)
	preferred := scratch.pick(session.SessionHash, 1<<30)
	w.g.mu.Unlock()
	if w.rebuilds != 1 {
		w.fatalf("a second session query on an unchanged fleet rebuilt the ring again (%d rebuilds)", w.rebuilds)
	}
	for _, in := range w.members(true) {
		want := 0
		if in.ri == preferred {
			want = 2
		}
		if len(in.link.inbox) != want {
			w.fatalf("%s holds %d of the session's 2 queries, want %d (ring prefers %s)", in.addr, len(in.link.inbox), want, preferred.addr)
		}
	}
}

// reapDrains waits for every Remove* call the model says must return now.
func (w *simWorld) reapDrains() {
	for _, in := range w.insts {
		if in.drain == nil || (in.state == stateDraining && len(in.link.inbox) > 0) {
			continue
		}
		var r simDrain
		select {
		case r = <-in.drain:
		case <-time.After(10 * time.Second): // a diagnostic, not a pace
			w.fatalf("drain of %s did not return", in.addr)
		}
		in.drain = nil
		if r.err != nil || (in.byAddr && r.died != in.wantDied) {
			w.fatalf("drain of %s returned died=%v err=%v, want died=%v", in.addr, r.died, r.err, in.wantDied)
		}
		if !in.wantDied {
			in.state = stateGone // orderly: no onDown
		}
		w.logf("drain of %s returned (died=%v)", in.addr, r.died)
	}
}

// --- the reference model ---

func (w *simWorld) refEvict(in *simInst) {
	if in.state == stateGone {
		return
	}
	in.state = stateGone
	in.link.inbox = nil // back to the central queue, as far as the model cares
	in.wantDied = in.drain != nil
	w.wantDowns[in.addr]++
	if w.holding {
		w.holds++ // the eviction's, held until a release op
	}
}

// wantResult: the sink has fired, once, with this outcome.
func (w *simWorld) wantResult(sink *simSink, errPart string) {
	w.t.Helper()
	if sink.fired != 1 || sink.checked {
		w.fatalf("sink fired %d times (already accounted: %v), want once, with an error containing %q", sink.fired, sink.checked, errPart)
	}
	sink.checked = true
	if err := sink.res.Err; (errPart == "") != (err == nil) || (err != nil && !strings.Contains(err.Error(), errPart)) {
		w.fatalf("query delivered %v, want error containing %q", err, errPart)
	}
}

// refSettle says what this instant must have done to every live query
// that no member holds, then compares the controller with the model.
func (w *simWorld) refSettle() {
	for _, in := range w.members(false) {
		if in.link.died != nil {
			w.refEvict(in) // a failed write is a fault exit like any other
		}
	}
	held := map[int64]bool{}
	for _, in := range w.members(false) {
		for _, req := range in.link.inbox {
			held[req.ID] = true
		}
	}
	central := 0
	for id, q := range w.live {
		if held[id] {
			continue
		}
		if !q.deadline.IsZero() && !w.now.Before(q.deadline) {
			delete(w.live, id)
			w.failed++
			w.wantResult(q.sink, DeadlineExceededMsg)
			continue
		}
		central++
	}
	if len(w.members(false)) == 0 && w.holds == 0 {
		for id, q := range w.live { // members == 0: every live query is central
			delete(w.live, id)
			w.failed++
			w.wantResult(q.sink, "no serving capacity")
		}
		central = 0
	}
	if central > 0 && len(w.members(true)) > 0 {
		w.fatalf("%d dispatchable queries left waiting with %d active instances", central, len(w.members(true)))
	}

	st := w.c.Stats()
	if st.Completed+st.Failed > st.Submitted {
		w.fatalf("completed+failed > submitted: %+v", st)
	}
	if st.Submitted != w.submitted || st.Completed != w.completed || st.Failed != w.failed || st.Waiting != central {
		w.fatalf("controller says submitted=%d completed=%d failed=%d waiting=%d, model says %d %d %d %d",
			st.Submitted, st.Completed, st.Failed, st.Waiting, w.submitted, w.completed, w.failed, central)
	}
	mem := w.members(false)
	if len(st.Instances) != len(mem) {
		w.fatalf("fleet %+v, model has %d members", st.Instances, len(mem))
	}
	for i, in := range mem {
		if got := st.Instances[i]; got.Addr != in.addr || got.Draining != (in.state == stateDraining) || got.Pending != len(in.link.inbox) {
			w.fatalf("member %d is %+v, model says %s draining=%v pending=%d", i, got, in.addr, in.state == stateDraining, len(in.link.inbox))
		}
	}
	for _, in := range w.insts {
		if w.downs[in.addr] != w.wantDowns[in.addr] {
			w.fatalf("%s reported down %d times, want %d", in.addr, w.downs[in.addr], w.wantDowns[in.addr])
		}
	}
	for id, q := range w.live {
		if q.sink.fired != 0 {
			w.fatalf("live query #%d was delivered: %+v", id, q.sink.res)
		}
	}
	// Exactly once, whichever path won: nothing the model has seen
	// delivered may fire again (a recycled query's stale reference would).
	for i, sink := range w.sinks {
		if sink.fired > 1 || (sink.fired == 1) != sink.checked {
			w.fatalf("submission %d: sink fired %d times, model accounted for it: %v", i, sink.fired, sink.checked)
		}
	}
	w.g.mu.Lock()
	holds := w.g.holds
	w.g.mu.Unlock()
	if holds != w.holds || len(w.held) != w.holds {
		w.fatalf("controller counts %d holds, the harness keeps %d releases, model says %d", holds, len(w.held), w.holds)
	}
}

// step runs one op, then lets the scheduler and the model catch up.
func (w *simWorld) step(op func()) {
	op()
	w.reapDrains()
	w.settle()
	w.reapDrains()
	w.settle()
	w.refSettle()
	w.checkOrder()
}

// checkOrder: the central queue is in enqueue order, so in id order with
// stamps that never fall, which the round's exposure rule relies on
// (sim.State). It runs before every round and after every step.
func (w *simWorld) checkOrder() {
	w.g.mu.Lock()
	defer w.g.mu.Unlock()
	for i := 1; i < len(w.g.waiting); i++ {
		if a, b := w.g.waiting[i-1], w.g.waiting[i]; b.id < a.id || b.enqueued.Before(a.enqueued) {
			w.fatalf("central queue out of enqueue order at %d: #%d, enqueued %v after #%d, stands ahead of it",
				i, a.id, a.enqueued.Sub(b.enqueued), b.id)
		}
	}
}

func runRoundSim(t *testing.T, seed int64) {
	w := newSimWorld(t, seed)
	ops := []func(){
		w.submit, w.submit, w.submit, w.submit, w.submit, w.lateSubmit,
		w.advance, w.advance,
		func() { w.reply(false) }, func() { w.reply(false) }, func() { w.reply(false) }, func() { w.reply(true) },
		w.join, w.join, w.failWrites, w.killRandom, w.staleReply,
		func() { w.drainRandom(false) }, func() { w.drainRandom(true) }, w.drainRacingKill,
	}
	if w.holding {
		ops = append(ops, w.hold, w.release, w.release)
	}
	w.membershipBurst()
	for i := 0; i < 400; i++ {
		if len(w.members(false)) >= 6 {
			w.step(w.killRandom)
		}
		w.step(ops[w.rng.Intn(len(ops))])
	}
	if seed%3 != 0 {
		// Quiesce: release every hold, answer everything, let every
		// deadline pass.
		for len(w.held) > 0 {
			w.step(w.release)
		}
		for i := 0; i < 100 && len(w.live) > 0; i++ {
			w.step(func() { w.reply(false) })
			if i%10 == 9 {
				w.now = w.now.Add(time.Second)
				w.step(func() { w.logf("advance 1s") })
			}
		}
		if len(w.live) > 0 || w.completed+w.failed != w.submitted {
			w.fatalf("not quiescent: %d live, %d+%d of %d", len(w.live), w.completed, w.failed, w.submitted)
		}
	}
	// Close fails what is left and waits for every reader; a drain still
	// in flight returns an error.
	w.logf("close")
	w.c.Close()
	for id, q := range w.live {
		delete(w.live, id)
		w.failed++
		w.wantResult(q.sink, "controller closed")
	}
	for _, in := range w.insts {
		if in.drain != nil {
			if r := <-in.drain; r.err == nil {
				w.fatalf("drain of %s survived Close: %+v", in.addr, r)
			}
		}
		select {
		case <-in.link.closed:
		default:
			w.fatalf("link of %s (model state %d) still open after Close", in.addr, in.state)
		}
	}
	if st := w.c.Stats(); st.Completed+st.Failed != st.Submitted || st.Failed != w.failed {
		w.fatalf("after Close %+v, model failed=%d", st, w.failed)
	}
	for i, sink := range w.sinks {
		if sink.fired != 1 {
			w.fatalf("after Close submission %d's sink has fired %d times", i, sink.fired)
		}
	}
}

func TestRoundSim(t *testing.T) {
	t.Parallel()
	if *simSeed != 0 {
		runRoundSim(t, *simSeed)
		return
	}
	for seed := int64(1); seed <= 60; seed++ {
		runRoundSim(t, seed)
	}
}

// TestBusyClockRestartsAtReply: one instance serves a backlog back to
// back and every reply comes δ later than predicted (wire, reply read, an
// emulator's oversleep). The instance starts each query as it answers the
// one before, so after every reply the round must see the new head's full
// predicted service left, within δ. A clock advanced only at dispatch
// falls a further δ behind with each reply: n·δ after n of them.
func TestBusyClockRestartsAtReply(t *testing.T) {
	t.Parallel()
	const n, delta = 12, 300 * time.Microsecond
	w := newSimWorld(t, 2) // no hold
	w.step(w.join)
	in := w.insts[0]
	for range n + 1 {
		w.step(func() { w.submitWith(SubmitOptions{}) })
	}
	if len(in.link.inbox) != n+1 {
		t.Fatalf("setup: %d of %d queries dispatched", len(in.link.inbox), n+1)
	}
	headMS := func() float64 { return w.g.predict(in.typeName, in.ri.pending[0].batch) }
	for i := 1; i <= n; i++ {
		w.g.mu.Lock()
		w.now = w.now.Add(w.c.wall(headMS()) + delta)
		w.g.mu.Unlock()
		w.step(func() { w.reply(false) })
		w.g.mu.Lock()
		truth := headMS()
		w.g.active = append(w.g.active[:0], in.ri)
		v := roundView{c: w.c, g: w.g, now: w.now}
		_, remaining, _ := v.Instance(0, nil)
		w.g.active = w.g.active[:0]
		w.g.mu.Unlock()
		if off := w.c.wall(truth - remaining); off > delta || off < -delta {
			t.Fatalf("after %d replies each %v late, the round sees %.3f ms left on the head, truth %.3f ms (off by %v)",
				i, delta, remaining, truth, off)
		}
	}
}

// TestFailedWriteRetiresInstance: a dispatch write that fails must take
// the instance out by the same exit a dead read does — gone from Stats,
// reported down once, naming the write failure, its queries requeued (not
// failed) and served elsewhere. The failure closes the link, so its reader
// is what evicts; before the membership owner existed the write path only
// marked the instance draining and waited for a read error that might
// never come.
func TestFailedWriteRetiresInstance(t *testing.T) {
	t.Parallel()
	w := newSimWorld(t, 2) // no hold
	var cause error
	w.c.SetOnInstanceDown(func(_, _, addr string, err error, release func()) { release(); w.downs[addr]++; cause = err })
	w.step(w.join)
	flaky := w.insts[0]
	plain := func() { w.submitWith(SubmitOptions{}) }
	w.step(plain) // dispatched to the only instance
	if len(flaky.link.inbox) != 1 {
		t.Fatalf("setup: inbox %v", flaky.link.inbox)
	}
	w.step(w.join)
	healthy := w.insts[1]
	flaky.link.failFlush = true
	// Least-loaded sends the next query to the idle newcomer and the one
	// after to the flaky instance, whose flush fails.
	w.step(plain)
	w.step(plain)
	if flaky.link.died == nil {
		t.Fatal("setup: no write reached the flaky link")
	}
	st := w.c.Stats()
	if len(st.Instances) != 1 || st.Instances[0].Addr != healthy.addr {
		t.Fatalf("write-failed instance still in the fleet: %+v", st.Instances)
	}
	if w.downs[flaky.addr] != 1 {
		t.Fatalf("onDown fired %d times for the write-failed instance, want 1", w.downs[flaky.addr])
	}
	if !errors.Is(cause, errMemLink) {
		t.Fatalf("eviction names %v, want the write failure, not the reader's closed read", cause)
	}
	// All three queries — the one in flight on the flaky instance and the
	// one whose write failed included — are now the healthy instance's.
	if st.Failed != 0 || st.Waiting != 0 || st.Instances[0].Pending != 3 {
		t.Fatalf("queries not re-served on the survivor: %+v", st)
	}
	w.g.mu.Lock()
	left := len(flaky.ri.pending)
	w.g.mu.Unlock()
	if left != 0 {
		t.Fatalf("retired instance still holds %d pending", left)
	}
	// A second report of the same fault is a no-op.
	w.c.evict(flaky.ri, errMemLink)
	for len(w.live) > 0 {
		w.step(func() { w.reply(false) })
	}
	if w.downs[flaky.addr] != 1 || w.completed != 3 {
		t.Fatalf("downs=%d completed=%d", w.downs[flaky.addr], w.completed)
	}
	w.c.Close()
}

// TestRoundSteadyStateAllocatesNothing: a served query — admitted, matched
// by the affinity pass or the policy, written through the link, completed
// — reuses the round's scratch end to end. (A round that found the queue
// empty once dropped the dispatch buffer's capacity; the ledger's
// allocs_per_query caught it, this holds it.)
func TestRoundSteadyStateAllocatesNothing(t *testing.T) {
	w := newSimWorld(t, 2)
	w.step(w.join)
	w.step(w.join)
	sink := &simSink{}
	serve := func(opts SubmitOptions) {
		w.c.enqueue(simModel, 8, opts, sink, w.now)
		w.c.round(w.g, w.now)
		w.c.flush(w.g)
		for _, in := range w.insts {
			for _, req := range in.link.inbox {
				w.c.complete(in.ri, Reply{ID: req.ID, ServiceMS: 1}, w.now)
			}
			in.link.inbox = in.link.inbox[:0]
		}
		if sink.fired != 1 || sink.res.Err != nil {
			t.Fatalf("sink fired %d times: %+v", sink.fired, sink.res)
		}
		sink.fired = 0
		w.c.round(w.g, w.now) // the round the completion kicks: empty queue
	}
	cycle := func() {
		serve(SubmitOptions{})
		serve(SubmitOptions{SessionHash: 7, Deadline: w.now.Add(time.Second)})
	}
	cycle() // grow the scratch once
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a steady-state served query allocates %.1f times", allocs/2)
	}
	w.c.Close()
}

// TestDeepQueueGrowthAllocatesLittle: a flash crowd deepens the central
// queue one query per round while the fleet is busy. The queue-sized
// scratch grows geometrically and the query records come 64 to a slab, so
// the growth costs O(log depth) + depth/64 allocations, not one or more
// per query. An eviction at depth requeues into the queue's own array, and
// every query is then served exactly once.
func TestDeepQueueGrowthAllocatesLittle(t *testing.T) {
	const depth, fleet = 2000, 16
	w := newSimWorld(t, 2) // no hold
	w.g.policy = &sim.LeastLoaded{MaxBacklog: 1}
	for range fleet {
		w.step(w.join)
	}
	sinks := make([]simSink, fleet+depth)
	serve := func() (served int) {
		for _, in := range w.insts {
			if in.ri.state == stateGone {
				continue
			}
			for _, req := range in.link.inbox {
				w.c.complete(in.ri, Reply{ID: req.ID, ServiceMS: 1}, w.now)
				served++
			}
			in.link.inbox = in.link.inbox[:0]
		}
		w.c.round(w.g, w.now)
		w.c.flush(w.g)
		return served
	}
	// Warm up: one query served per instance grows what the fleet's size
	// bounds (pending lists, correlation maps, link buffers).
	for i := range fleet {
		w.c.enqueue(simModel, 8, SubmitOptions{}, &sinks[i], w.now)
	}
	w.c.round(w.g, w.now)
	w.c.flush(w.g)
	serve()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := fleet; i < len(sinks); i++ {
		w.c.enqueue(simModel, 1+i%64, SubmitOptions{}, &sinks[i], w.now)
		w.c.round(w.g, w.now)
		w.c.flush(w.g)
	}
	runtime.ReadMemStats(&after)
	// Measured 74: a reallocation per growth step of the queue, the views
	// and the taken flags, plus depth/64 slabs (-race drops a quarter of
	// sync.Pool's Puts at random, so a slab refills less of the pool
	// there). Reallocating per round and per query costs >= depth (3968).
	n := after.Mallocs - before.Mallocs
	t.Logf("deepening the queue to %d: %d allocations", depth, n)
	if n > depth/16 {
		t.Fatalf("deepening the queue to %d allocated %d times, want <= %d", depth, n, depth/16)
	}

	w.g.mu.Lock()
	queued, capacity := len(w.g.waiting), cap(w.g.waiting)
	w.g.mu.Unlock()
	if queued != depth-fleet {
		t.Fatalf("setup: %d waiting, want %d (the fleet holds one each)", queued, depth-fleet)
	}
	victim := w.insts[0]
	stranded := victim.ri.pending[0]
	w.c.evict(victim.ri, errors.New("killed"))
	w.g.mu.Lock()
	head, queued, grown := w.g.waiting[0], len(w.g.waiting), cap(w.g.waiting)
	w.g.mu.Unlock()
	if head != stranded || queued != depth-fleet+1 || grown != capacity {
		t.Fatalf("eviction at depth: head stranded=%v, %d waiting, cap %d -> %d; want the stranded query first, %d waiting, cap kept",
			head == stranded, queued, capacity, grown, depth-fleet+1)
	}

	for serve() > 0 {
	}
	for i := range sinks {
		if sinks[i].fired != 1 || sinks[i].res.Err != nil {
			t.Fatalf("query %d: sink fired %d times, err %v", i, sinks[i].fired, sinks[i].res.Err)
		}
	}
	if st := w.c.Stats(); st.Completed != int64(len(sinks)) || st.Failed != 0 || st.Waiting != 0 || w.downs[victim.addr] != 1 {
		t.Fatalf("after the drain %+v, downs %v", st, w.downs)
	}
	w.c.Close()
}

// TestScheduleFlushesOncePerBurst pins the flush rule under the fake clock:
// one wake-up of the scheduler runs the round it was woken for and, when a
// kick landed meanwhile, exactly one more — then writes each touched link
// once, and never goes back to sleep over an unflushed dispatch.
func TestScheduleFlushesOncePerBurst(t *testing.T) {
	t.Parallel()
	plain := func(w *simWorld) func() { return func() { w.submitWith(SubmitOptions{}) } }

	t.Run("two rounds, one flush", func(t *testing.T) {
		w := newSimWorld(t, 2)
		w.step(w.join)
		link := w.insts[0].link
		// A submission lands while the first round is writing its dispatch:
		// the kick it leaves is the second round's.
		mid := 1
		link.onQueue = func() {
			if mid > 0 {
				mid--
				plain(w)()
			}
		}
		base := link.flushes
		w.step(plain(w))
		if link.flushes != base+1 || len(link.inbox) != 2 {
			t.Fatalf("two back-to-back rounds to one instance: %d flushes, inbox %v", link.flushes-base, link.inbox)
		}
		w.c.Close()
	})

	t.Run("at most one extra round", func(t *testing.T) {
		w := newSimWorld(t, 2)
		w.step(w.join)
		link := w.insts[0].link
		link.onQueue = plain(w) // every dispatch begets a submission: kicks never run out
		w.submitWith(SubmitOptions{})
		<-w.g.kick // groupLoop's receive
		base := link.flushes
		w.c.schedule(w.g, w.clock)
		if link.flushes != base+1 || len(link.inbox) != 2 || len(link.queued) != 0 {
			t.Fatalf("one wake-up: %d flushes, inbox %v, unflushed %v", link.flushes-base, link.inbox, link.queued)
		}
		select {
		case <-w.g.kick:
		default:
			t.Fatal("the third submission's kick was swallowed")
		}
		if st := w.c.Stats(); st.Waiting != 1 {
			t.Fatalf("third submission: waiting %d, want 1 (left for the next wake-up)", st.Waiting)
		}
		link.onQueue = nil
		w.c.Close()
	})

	t.Run("deferred flush error requeues the burst", func(t *testing.T) {
		// The burst's one write fails: the link dies, and its reader evicts.
		w := newSimWorld(t, 1) // odd seed: the eviction's hold parks the queue
		w.step(w.join)
		flaky := w.insts[0]
		mid := 1
		flaky.link.onQueue = func() {
			if mid > 0 {
				mid--
				plain(w)()
			}
		}
		flaky.link.failFlush = true
		w.step(plain(w))
		// Both rounds' dispatches sat behind the one failed write: the
		// instance left by the fault exit, once, and both queries are back
		// in the central queue, neither failed.
		if flaky.link.flushes != 1 || w.downs[flaky.addr] != 1 {
			t.Fatalf("flushes=%d downs=%d, want 1 and 1", flaky.link.flushes, w.downs[flaky.addr])
		}
		if st := w.c.Stats(); st.Waiting != 2 || st.Failed != 0 || len(st.Instances) != 0 {
			t.Fatalf("burst not requeued whole: %+v", st)
		}
		w.step(w.join)
		if healthy := w.insts[1]; len(healthy.link.inbox) != 2 {
			t.Fatalf("requeued burst not re-served: inbox %v", healthy.link.inbox)
		}
		for len(w.live) > 0 {
			w.step(func() { w.reply(false) })
		}
		w.c.Close()
	})
}

// careless assigns every exposed query twice and adds assignments that name
// no query or no instance, the affinity-held query among them.
type careless struct{ out []sim.Assignment }

func (*careless) Name() string { return "careless" }

func (p *careless) Assign(_ float64, w []sim.QueryView, in []sim.InstanceView) []sim.Assignment {
	p.out = append(p.out[:0], sim.Assignment{Query: 0, Instance: 0})
	for _, q := range w {
		p.out = append(p.out, sim.Assignment{Query: q.Index, Instance: 1}, sim.Assignment{Query: q.Index, Instance: 0},
			sim.Assignment{Query: q.Index + 100, Instance: 0})
	}
	p.out = append(p.out, sim.Assignment{Query: -1, Instance: 0}, sim.Assignment{Query: 1, Instance: len(in)})
	return p.out
}

// TestRoundDropsInvalidAssignmentsLive: the controller runs the round core's
// one rule for a policy's mistakes. A query the affinity pass took, one the
// policy names twice, and assignments naming no query or no instance are
// dropped; each query is dispatched once and delivered once.
func TestRoundDropsInvalidAssignmentsLive(t *testing.T) {
	w := newSimWorld(t, 2)
	w.g.policy = &careless{}
	w.step(w.join)
	w.step(w.join)
	sinks := make([]simSink, 3)
	w.c.enqueue(simModel, 8, SubmitOptions{SessionHash: 7}, &sinks[0], w.now) // the affinity pass's
	w.c.enqueue(simModel, 8, SubmitOptions{}, &sinks[1], w.now)
	w.c.enqueue(simModel, 8, SubmitOptions{}, &sinks[2], w.now)
	w.c.round(w.g, w.now)
	w.c.flush(w.g)
	seen := map[int64]int{}
	for _, in := range w.insts {
		for _, req := range in.link.inbox {
			seen[req.ID]++
			w.c.complete(in.ri, Reply{ID: req.ID, ServiceMS: 1}, w.now)
		}
		in.link.inbox = in.link.inbox[:0]
	}
	if len(seen) != 3 || len(w.g.waiting) != 0 {
		t.Fatalf("dispatched %v, %d left waiting", seen, len(w.g.waiting))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("query %d dispatched %d times", id, n)
		}
	}
	for i := range sinks {
		if sinks[i].fired != 1 || sinks[i].res.Err != nil {
			t.Fatalf("query %d: sink fired %d times: %+v", i, sinks[i].fired, sinks[i].res)
		}
	}
	w.c.Close()
}
