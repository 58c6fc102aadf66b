package autopilot

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"kairos/internal/cloud"
	"kairos/internal/core"
	"kairos/internal/models"
	"kairos/internal/obs"
	"kairos/internal/server"
)

// The production sense/decide/reconcile code under a fake clock, an
// in-memory fleet and a fake provider: no socket, no sleep, no control-loop
// goroutine. The test plays the loop itself (tick, or heal when a kick is
// queued), drives seeded random sequences of drift, SLO breaches, idle
// stretches, kills, launch failures and preemption notices, and after
// every step checks the invariants the package advertises. A failing seed
// prints its op log and the command that replays it.

var simSeed = flag.Int64("sim.seed", 0, "run TestAutopilotSim on this one seed instead of the fixed list")

var errSimLaunch = errors.New("sim: launch refused")

// simInst is one instance as the provider and the fleet know it.
type simInst struct {
	model, typeName string
	busyMS          float64
}

// simProvider is the fake actuation driver. It keeps launching after Close
// — as both real providers did before they learned to refuse — so a launch
// that slips past Close is seen, not hidden.
type simProvider struct {
	mu                    sync.Mutex
	next                  int
	live                  map[string]*simInst
	launches, stops, late int
	failLaunches          int // the next n launches fail
	closed                bool
	notices               chan Preemption
	lateLaunch            chan struct{}
}

func newSimProvider() *simProvider {
	return &simProvider{live: map[string]*simInst{}, notices: make(chan Preemption, 1), lateLaunch: make(chan struct{}, 1)}
}

func (p *simProvider) Launch(model, typeName string) (string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		p.late++
		select {
		case p.lateLaunch <- struct{}{}:
		default:
		}
	}
	if p.failLaunches > 0 {
		p.failLaunches--
		return "", errSimLaunch
	}
	p.next++
	p.launches++
	addr := fmt.Sprintf("sim-%03d", p.next)
	p.live[addr] = &simInst{model: model, typeName: typeName}
	return addr, nil
}

func (p *simProvider) Stop(addr string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.live[addr] == nil {
		return fmt.Errorf("sim: no instance at %s", addr)
	}
	delete(p.live, addr)
	p.stops++
	return nil
}

func (p *simProvider) Addrs() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.live))
	for addr := range p.live {
		out = append(out, addr)
	}
	sort.Strings(out)
	return out
}

func (p *simProvider) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	p.stops += len(p.live)
	p.live = map[string]*simInst{}
	return nil
}

// Reap releases a dead instance like Stop does; an address already gone
// is fine.
func (p *simProvider) Reap(addr string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.live[addr] != nil {
		delete(p.live, addr)
		p.stops++
	}
	return nil
}

func (p *simProvider) Notices() <-chan Preemption { return p.notices }

func (p *simProvider) TimeScale() float64 { return 1 }

// simFleet is the fake controller: the instances connected to it and the
// counters sense reads.
type simFleet struct {
	mu       sync.Mutex
	prov     *simProvider
	inst     map[string]*simInst
	traffic  map[string]int64 // per model: submitted == completed
	dieDrain map[string]bool  // these die mid-drain
	onDown   func(model, typeName, addr string, cause error, release func())
	holds    int // taken and not yet released; negative after a double release
	closed   chan struct{}
	// The close test parks RemoveInstanceAddr: entered is signalled once a
	// drain is inside, gate releases it.
	entered, gate chan struct{}
}

func newSimFleet(p *simProvider) *simFleet {
	return &simFleet{prov: p, inst: map[string]*simInst{}, traffic: map[string]int64{}, dieDrain: map[string]bool{}, closed: make(chan struct{})}
}

func (f *simFleet) Stats() server.Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := server.Stats{Models: map[string]server.ModelStats{}}
	for model, n := range f.traffic {
		st.Models[model] = server.ModelStats{Submitted: n, Completed: n}
		st.Submitted += n
		st.Completed += n
	}
	for _, addr := range f.addrs() {
		in := f.inst[addr]
		st.Instances = append(st.Instances, server.InstanceStats{Model: in.model, TypeName: in.typeName, Addr: addr, BusyMS: in.busyMS})
	}
	return st
}

// addrs lists the connected addresses in order; callers hold mu.
func (f *simFleet) addrs() []string {
	out := make([]string, 0, len(f.inst))
	for addr := range f.inst {
		out = append(out, addr)
	}
	sort.Strings(out)
	return out
}

func (f *simFleet) ModelInstanceCounts(model string) map[string]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := map[string]int{}
	for _, in := range f.inst {
		if in.model == model {
			out[in.typeName]++
		}
	}
	return out
}

func (f *simFleet) AddInstance(addr string) (string, error) {
	f.prov.mu.Lock()
	in := f.prov.live[addr]
	f.prov.mu.Unlock()
	select {
	case <-f.closed:
		return "", errors.New("sim: controller closed")
	default:
	}
	if in == nil {
		return "", fmt.Errorf("sim: nothing listens at %s", addr)
	}
	f.mu.Lock()
	f.inst[addr] = in
	f.mu.Unlock()
	return in.model, nil
}

func (f *simFleet) RemoveInstance(model, typeName string) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, addr := range f.addrs() {
		if in := f.inst[addr]; in.model == model && in.typeName == typeName {
			delete(f.inst, addr)
			return addr, nil
		}
	}
	return "", fmt.Errorf("sim: no removable instance of type %s serving %s", typeName, model)
}

func (f *simFleet) RemoveInstanceAddr(addr string) (string, string, bool, error) {
	f.mu.Lock()
	in, died := f.inst[addr], f.dieDrain[addr]
	delete(f.inst, addr)
	f.mu.Unlock()
	if in == nil {
		return "", "", false, fmt.Errorf("sim: no removable instance at %s", addr)
	}
	if f.gate != nil {
		f.entered <- struct{}{}
		<-f.gate
	}
	if died {
		// The deadline won: the eviction path reports the death first.
		f.onDown(in.model, in.typeName, addr, errors.New("sim: died mid-drain"), f.Hold(in.model))
	}
	return in.model, in.typeName, died, nil
}

func (f *simFleet) Close() { close(f.closed) }

// Hold counts a hold until its release, which counts every call: the
// simulation holds the autopilot to calling each exactly once.
func (f *simFleet) Hold(string) func() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.holds++
	return func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.holds--
	}
}

// outstanding reads the hold count.
func (f *simFleet) outstanding() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.holds
}

// kill drops an instance the way a crash does: gone from the fleet, the
// eviction callback fired.
func (f *simFleet) kill(addr string) {
	f.mu.Lock()
	in := f.inst[addr]
	delete(f.inst, addr)
	f.mu.Unlock()
	f.onDown(in.model, in.typeName, addr, errors.New("sim: killed"), f.Hold(in.model))
}

// The simulated deployment: two models on the default pool, one with a
// reference mix, one arming lazily; a cheap CPU-only plan for small
// batches and a GPU plan for large ones.
const (
	simCooldown = 5 * time.Second
	simFloor    = 0.3
	simBand     = ScaleInHysteresis
	simSLOMS    = 10
)

var (
	simSmall = cloud.Config{0, 0, 2, 0}
	simLarge = cloud.Config{1, 0, 1, 0}
	simOne   = cloud.Config{0, 0, 1, 0}
)

// simPlan is the fake planner: a pure function of the samples and budget.
func simPlan(samples map[string][]int, budget float64) core.FleetPlan {
	out := core.FleetPlan{}
	for model, s := range samples {
		sum := 0
		for _, b := range s {
			sum += b
		}
		switch {
		case budget > 0 && budget < 0.149*float64(len(samples)):
			// the shrunk budget buys nothing
		case budget > 0:
			out[model] = simOne.Clone()
		case sum/len(s) > 300:
			out[model] = simLarge.Clone()
		default:
			out[model] = simSmall.Clone()
		}
	}
	return out
}

type simWorld struct {
	t       *testing.T
	seed    int64
	rng     *rand.Rand
	now     time.Time
	a       *Autopilot
	prov    *simProvider
	fleet   *simFleet
	models  []string
	util    float64 // what the fleet's busy counters accrue per model ms
	dirty   bool    // the fleet may differ from the plan until a reconcile succeeds
	lastSeq int64
	plans   int // Plan calls
	ops     []string
}

func newSimWorld(t *testing.T, seed int64) *simWorld {
	w := &simWorld{t: t, seed: seed, rng: rand.New(rand.NewSource(seed)), now: shapeAt, prov: newSimProvider(), util: 0.9}
	w.fleet = newSimFleet(w.prov)
	ms := []models.Model{models.MustByName("MT-WND"), models.MustByName("NCF")}
	initial := core.FleetPlan{}
	for i := range ms {
		ms[i].QoS = simSLOMS
		m := ms[i]
		w.models = append(w.models, m.Name)
		initial[m.Name] = simSmall.Clone()
	}
	pool := cloud.DefaultPool()
	addrs, err := Deploy(w.prov, pool, initial)
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range addrs {
		if _, err := w.fleet.AddInstance(addr); err != nil {
			t.Fatal(err)
		}
	}
	small := make([]int, 40)
	for i := range small {
		small[i] = 20 + i
	}
	w.a, err = assemble(w.fleet, initial, Wiring{
		Pool:   pool,
		Models: ms,
		Plan: func(samples map[string][]int, _ map[string]float64, budget float64) (core.FleetPlan, error) {
			w.plans++
			return simPlan(samples, budget), nil
		},
		References: map[string][]int{"NCF": small},
	}, Options{
		Provider: w.prov, Window: 40, MinObservations: 20, Cooldown: simCooldown,
		ScaleInFloor: simFloor, ScaleInTicks: 2,
	}, func() time.Time { return w.now })
	if err != nil {
		t.Fatal(err)
	}
	w.fleet.onDown = w.a.onInstanceDown
	return w
}

func (w *simWorld) logf(format string, args ...any) {
	w.ops = append(w.ops, fmt.Sprintf("%8.1fs  ", w.now.Sub(shapeAt).Seconds())+fmt.Sprintf(format, args...))
}

func (w *simWorld) fatalf(format string, args ...any) {
	w.t.Helper()
	tail := w.ops
	if len(tail) > 25 {
		tail = tail[len(tail)-25:]
	}
	w.t.Fatalf("seed %d: %s\nreplay: go test ./internal/autopilot -run 'TestAutopilotSim$' -sim.seed=%d\nlast ops:\n%s",
		w.seed, fmt.Sprintf(format, args...), w.seed, strings.Join(tail, "\n"))
}

// advance moves the clock; the fleet's busy counters accrue at w.util.
func (w *simWorld) advance(d time.Duration) {
	w.now = w.now.Add(d)
	w.fleet.mu.Lock()
	for _, in := range w.fleet.inst {
		in.busyMS += w.util * millis(d)
	}
	w.fleet.mu.Unlock()
	w.logf("advance %v at util %.2f", d, w.util)
}

// serve delivers a window's worth of completions to one model.
func (w *simWorld) serve(model string, large, breach bool) {
	lat := 1.0
	if breach {
		lat = 5 * simSLOMS
	}
	for i := 0; i < 40; i++ {
		batch := 20 + w.rng.Intn(40)
		if large {
			batch = 500 + w.rng.Intn(300)
		}
		w.a.observe(model, batch, server.QueryResult{LatencyMS: lat})
	}
	w.fleet.mu.Lock()
	w.fleet.traffic[model] += 40
	w.fleet.mu.Unlock()
	w.logf("serve %s large=%v breach=%v", model, large, breach)
}

// entries returns the journal entries added since the last call, checking
// that seq only ever grows by one.
func (w *simWorld) entries() []DecisionEvent {
	var fresh []DecisionEvent
	for _, ev := range w.a.Decisions() {
		if ev.Seq > w.lastSeq {
			if ev.Seq != w.lastSeq+1 {
				w.fatalf("journal seq jumped from %d to %d", w.lastSeq, ev.Seq)
			}
			w.lastSeq = ev.Seq
			fresh = append(fresh, ev)
			w.logf("  journal #%d %s %q err=%q", ev.Seq, ev.Kind, ev.Reason, ev.Err)
		}
	}
	return fresh
}

// settled checks what must hold whenever no fault is outstanding: the
// observed fleet is the plan in force, instance for instance, and the
// provider runs exactly that many — launches minus stops, never more.
func (w *simWorld) settled() {
	plan := w.a.Current()
	for _, model := range w.models {
		have := w.fleet.ModelInstanceCounts(model)
		for i, ty := range w.a.wiring.Pool {
			if have[ty.Name] != plan[model][i] {
				w.fatalf("%s runs %v, the plan in force is %v", model, have, plan)
			}
		}
	}
	w.prov.mu.Lock()
	running, launches, stops := len(w.prov.live), w.prov.launches, w.prov.stops
	w.prov.mu.Unlock()
	if running != plan.Total() || launches-stops != running {
		w.fatalf("provider runs %d (launches %d - stops %d), the plan in force has %d", running, launches, stops, plan.Total())
	}
}

// after reads what one action journalled. The last entry that carries a
// reconcile decides: a success means the fleet is the plan in force again;
// a failed actuation must have left a fault pending with one kick queued.
func (w *simWorld) after(evs ...DecisionEvent) {
	for i := len(evs) - 1; i >= 0; i-- {
		switch ev := evs[i]; {
		case ev.Err == "" && (ev.Kind == "heal" || ev.Kind == "replan" || ev.Kind == "preempt" && ev.To != nil):
			w.dirty = false
			return
		case strings.Contains(ev.Err, errSimLaunch.Error()):
			w.dirty = true
			if f := w.a.Faults(); !f.Pending || len(w.a.faultKick) != 1 {
				w.fatalf("failed reconcile left pending=%v kicks=%d", f.Pending, len(w.a.faultKick))
			}
			return
		}
	}
}

// holdsOwed checks the hold rule between ops, when no handler runs: a
// hold is outstanding only while a heal is owed, each one listed for the
// next reconcile, and none is released twice.
func (w *simWorld) holdsOwed() {
	n := w.fleet.outstanding()
	w.a.mu.Lock()
	listed, pending := len(w.a.releases), w.a.faults.Pending
	w.a.mu.Unlock()
	switch {
	case n < 0:
		w.fatalf("a hold was released twice (count %d)", n)
	case n != listed:
		w.fatalf("%d holds outstanding, %d listed for the next reconcile", n, listed)
	case n > 0 && !pending:
		w.fatalf("%d holds outstanding with no heal owed", n)
	}
}

// tick plays one loop period and checks what the step did.
func (w *simWorld) tick() {
	before, pending := w.a.Current(), w.a.Faults().Pending
	lastChange, lowTicks := w.a.trig.lastChange, w.a.trig.lowTicks
	couldFail := w.prov.failLaunches > 0
	w.logf("tick (pending=%v)", pending)
	w.a.tick()
	evs := w.entries()
	if len(evs) != 1 && !(pending && len(evs) == 2) {
		w.fatalf("a tick journalled %d entries (pending=%v)", len(evs), pending)
	}
	if pending {
		// A pending fault is retried before the triggers, cooldown or not.
		if k := evs[0].Kind; len(evs) != 2 || k != "heal" && !(k == "error" && strings.HasPrefix(evs[0].Reason, "heal: ")) {
			w.fatalf("pending fault not retried at the tick: first of %d entries is %q", len(evs), k)
		}
	}
	w.after(evs...)
	step, changed := evs[len(evs)-1], !before.Equal(w.a.Current())
	if (step.Kind == "replan") != changed {
		w.fatalf("journalled %q but plan changed=%v (%v -> %v)", step.Kind, changed, before, w.a.Current())
	}
	if answered := !w.a.trig.lastChange.Equal(lastChange); answered {
		if gap := w.now.Sub(lastChange); !lastChange.IsZero() && gap < simCooldown {
			w.fatalf("trigger answered %v after the last one, inside the %v cooldown", gap, simCooldown)
		}
	} else if step.Kind == "replan" {
		w.fatalf("a trigger replan did not restart the cooldown")
	}
	if step.Kind == "held" && w.now.Sub(lastChange) >= simCooldown {
		w.fatalf("trigger held %v after the last answer, outside the cooldown", w.now.Sub(lastChange))
	}
	if u := step.Utilization; u >= simFloor && u <= simFloor+simBand {
		if got := w.a.trig.lowTicks; got != lowTicks && got != 0 {
			w.fatalf("scale-in counter moved %d -> %d on a reading of %.2f inside the hysteresis band", lowTicks, got, u)
		}
	}
	if b := step.PlanBudget; b != 0 && (b < 0.149-1e-9 || b >= before.Cost(w.a.wiring.Pool)) {
		w.fatalf("scale-in planned under $%.3f/hr: below the cheapest price or not below the current $%.3f/hr", b, before.Cost(w.a.wiring.Pool))
	}
	if pending && !couldFail && w.a.Faults().Pending {
		w.fatalf("a pending fault survived a tick whose launches all succeeded")
	}
}

// pump plays the loop's fault-kick case.
func (w *simWorld) pump() {
	select {
	case <-w.a.faultKick:
		w.logf("kick: heal")
		w.a.heal()
		w.after(w.entries()...)
	default:
	}
}

// live picks a connected instance, "" when the fleet is empty.
func (w *simWorld) live() string {
	w.fleet.mu.Lock()
	defer w.fleet.mu.Unlock()
	addrs := w.fleet.addrs()
	if len(addrs) == 0 {
		return ""
	}
	return addrs[w.rng.Intn(len(addrs))]
}

func (w *simWorld) kill() {
	addr := w.live()
	if addr == "" {
		return
	}
	lost := w.a.Faults().InstancesLost
	w.logf("kill %s", addr)
	w.fleet.kill(addr)
	w.a.spawned.Wait() // the reap
	w.dirty = true
	if f := w.a.Faults(); !f.Pending || f.InstancesLost != lost+1 || len(w.a.faultKick) != 1 {
		w.fatalf("after a kill: %+v, kicks=%d", f, len(w.a.faultKick))
	}
}

// preempt delivers a revocation notice and runs its handler to the end;
// refilling the hole must not wait for the cooldown, and it never plans:
// the drain re-actuates the plan in force, whatever the windows say.
func (w *simWorld) preempt(dies bool) {
	addr := w.live()
	if addr == "" {
		return
	}
	w.fleet.dieDrain[addr] = dies
	f0, plan, plans := w.a.Faults(), w.a.Current(), w.plans
	w.logf("preempt %s dies=%v", addr, dies)
	w.dirty = true
	w.a.handlePreemption(Preemption{Addr: addr, Deadline: w.now.Add(time.Second)})
	w.a.spawned.Wait()
	evs := w.entries()
	if len(evs) != 1 || evs[0].Kind != "preempt" {
		w.fatalf("a notice journalled %d entries", len(evs))
	}
	w.after(evs...)
	f := w.a.Faults()
	switch {
	case f.Preemptions != f0.Preemptions+1:
		w.fatalf("notice not counted: %+v", f)
	case dies && (f.PreemptionDeadlineDeaths != f0.PreemptionDeadlineDeaths+1 || !f.Pending):
		w.fatalf("mid-drain death not handed to the heal path: %+v", f)
	case !dies && f.PreemptionsDrained != f0.PreemptionsDrained+1:
		w.fatalf("drain not counted: %+v", f)
	case !dies && evs[0].Err == "" && f.PreemptionsReplanned != f0.PreemptionsReplanned+1:
		w.fatalf("refill of the hole not counted: %+v", f)
	case w.plans != plans:
		w.fatalf("a preemption made %d Plan calls", w.plans-plans)
	case !w.a.Current().Equal(plan):
		w.fatalf("a preemption moved the plan in force %v -> %v", plan, w.a.Current())
	}
}

func runAutopilotSim(t *testing.T, seed int64) {
	w := newSimWorld(t, seed)
	for step := 0; step < 80; step++ {
		switch op := w.rng.Intn(12); op {
		case 0, 1, 2:
			w.advance(time.Duration(200+w.rng.Intn(4000)) * time.Millisecond)
		case 3, 4:
			w.serve(w.models[w.rng.Intn(2)], w.rng.Intn(2) == 0, w.rng.Intn(4) == 0)
		case 5:
			w.util = []float64{0.05, 0.25, simFloor + simBand/2, 0.9}[w.rng.Intn(4)]
			w.logf("util -> %.2f", w.util)
		case 6, 7, 8:
			w.tick()
		case 9:
			if w.rng.Intn(2) == 0 {
				w.kill()
			} else {
				w.prov.failLaunches = 1 + w.rng.Intn(2)
				w.logf("next %d launches fail", w.prov.failLaunches)
			}
		case 10:
			w.preempt(w.rng.Intn(3) == 0)
		case 11:
			w.pump()
		}
		if f := w.a.Faults(); f.Pending && !w.dirty {
			w.fatalf("a fault is pending the simulation does not know of: %+v", f)
		}
		if !w.dirty {
			w.settled()
		}
		w.holdsOwed()
	}
	// Quiescence: with launches succeeding, a kick or a tick heals
	// whatever is outstanding, and then nothing is pending.
	w.prov.failLaunches = 0
	w.pump()
	w.advance(time.Second)
	w.tick()
	if f := w.a.Faults(); f.Pending || w.dirty {
		w.fatalf("not quiescent after a clean kick and tick: dirty=%v %+v", w.dirty, f)
	}
	w.settled()
	if n := w.fleet.outstanding(); n != 0 {
		w.fatalf("%d holds outstanding at quiescence", n)
	}
}

// TestAutopilotSim runs the fixed seed list, or the one seed -sim.seed
// names.
func TestAutopilotSim(t *testing.T) {
	t.Parallel()
	if *simSeed != 0 {
		runAutopilotSim(t, *simSeed)
		return
	}
	for seed := int64(1); seed <= 40; seed++ {
		runAutopilotSim(t, seed)
	}
}

// TestCloseWaitsForPreemptionHandler: a handler whose drain finishes while
// Close is under way must not replan — nothing may be launched once Close
// has returned, and Close must not return while the handler still runs.
func TestCloseWaitsForPreemptionHandler(t *testing.T) {
	t.Parallel()
	w := newSimWorld(t, 1)
	w.fleet.entered, w.fleet.gate = make(chan struct{}), make(chan struct{})
	launches := w.prov.launches
	w.a.Start()
	w.prov.notices <- Preemption{Addr: w.live(), Deadline: w.now.Add(time.Minute)}
	<-w.fleet.entered // the drain is blocked on an in-flight query

	closed := make(chan struct{})
	go func() {
		w.a.Close()
		close(closed)
	}()
	<-w.fleet.closed    // Close is past the loop and has closed the controller
	close(w.fleet.gate) // the in-flight query completes: the drain finishes normally
	<-closed

	// Nothing was launched, and nothing is: a handler Close did not wait
	// for would get here within microseconds of the gate opening.
	select {
	case <-w.prov.lateLaunch:
		t.Fatal("an instance was launched after Close returned")
	case <-time.After(100 * time.Millisecond):
	}
	w.prov.mu.Lock()
	defer w.prov.mu.Unlock()
	if len(w.prov.live) != 0 || w.prov.launches != launches || w.prov.late != 0 {
		t.Fatalf("after Close: %d running, %d launches since the notice, %d after Close", len(w.prov.live), w.prov.launches-launches, w.prov.late)
	}
	// The notice's hold, owed after Close began, was released at once.
	if n := w.fleet.outstanding(); n != 0 {
		t.Fatalf("after Close: %d holds outstanding", n)
	}
}

// TestPreemptionLeavesDriftToTheTrigger: a notice that lands on a drifted
// window only refills the hole. The drift is the trigger's to answer: the
// next Step replans once and rebases the detector, so a Step past the
// cooldown on the same window replans nothing.
func TestPreemptionLeavesDriftToTheTrigger(t *testing.T) {
	t.Parallel()
	w := newSimWorld(t, 1)
	w.serve("NCF", true, false) // a warm window of large batches against NCF's small reference
	plan := w.a.Current()

	w.a.handlePreemption(Preemption{Addr: w.live(), Deadline: w.now.Add(time.Second)})
	evs := w.entries()
	if len(evs) != 1 || evs[0].Kind != "preempt" || evs[0].Err != "" || !strings.HasSuffix(evs[0].Reason, "drained and re-actuated the plan in force") {
		t.Fatalf("the notice journalled %+v", evs)
	}
	if got := w.a.Current(); !got.Equal(plan) || w.plans != 0 {
		t.Fatalf("the drain moved the plan %v -> %v with %d Plan calls", plan, got, w.plans)
	}
	w.settled()

	step := func() []string {
		t.Helper()
		if _, err := w.a.Step(); err != nil {
			t.Fatal(err)
		}
		var kinds []string
		for _, ev := range w.entries() {
			kinds = append(kinds, ev.Kind)
		}
		return kinds
	}
	w.advance(time.Second)
	if kinds := step(); len(kinds) != 1 || kinds[0] != "replan" || w.plans != 1 {
		t.Fatalf("the first Step after the notice journalled %v with %d Plan calls, want one replan", kinds, w.plans)
	}
	if got := w.a.Current()["NCF"]; !got.Equal(simLarge) {
		t.Fatalf("the drift replan gave NCF %v, want %v", got, simLarge)
	}
	w.advance(simCooldown + time.Second)
	if kinds := step(); len(kinds) != 1 || kinds[0] != "steady" || w.plans != 1 {
		t.Fatalf("a Step past the cooldown on the same window journalled %v with %d Plan calls, want steady", kinds, w.plans)
	}
}

// TestStatusPercentilesMatchWindow pins the one latency path Status and the
// tick share: every percentile is the window's own quantile walk over the
// same samples (obs.Window), within obs.QuantileRelErr of the exact
// nearest-rank value.
func TestStatusPercentilesMatchWindow(t *testing.T) {
	t.Parallel()
	w := newSimWorld(t, 1)
	ref := obs.NewWindow(40) // the window holds the last 40
	var window []float64
	for i := 0; i < 100; i++ {
		lat := 0.5 + 20*w.rng.Float64()
		w.a.observe("NCF", 30, server.QueryResult{LatencyMS: lat})
		ref.Observe(time.Duration(lat * float64(time.Millisecond)))
		window = append(window, lat)
	}
	window = window[len(window)-40:]
	sort.Float64s(window)
	q := func(p float64) float64 {
		got := float64(ref.Quantile(p/100)) / float64(time.Millisecond)
		exact := window[int(math.Ceil(p/100*40))-1]
		if got > exact*(1+obs.QuantileRelErr) || got*(1+obs.QuantileRelErr) < exact {
			t.Fatalf("window p%g %v, exact %v: outside the %.2f%% bound", p, got, exact, 100*obs.QuantileRelErr)
		}
		return got
	}
	got := w.a.Status().Models["NCF"].Window
	if got.LatencySamples != 40 || got.P50MS != q(50) || got.P95MS != q(95) || got.P99MS != q(99) || got.TailMS != q(SLOPercentile) {
		t.Fatalf("status window %+v, want p50 %v p95 %v p99 %v tail %v over 40 samples", got, q(50), q(95), q(99), q(SLOPercentile))
	}
	if tail := w.a.read("NCF").tailMS; tail != q(SLOPercentile) {
		t.Fatalf("sensed tail %v, want %v", tail, q(SLOPercentile))
	}
	if empty := w.a.Status().Models["MT-WND"].Window; empty.LatencySamples != 0 || empty.P99MS != 0 || empty.TailMS != 0 {
		t.Fatalf("empty window reports %+v", empty)
	}
}

// TestSLOTriggerBoundary: through the real window and decide, the SLO
// trigger fires whenever the exact tail is at least (1+ε)·SLO and stays
// quiet whenever it is at most SLO/(1+ε), ε = obs.QuantileRelErr — across
// five decades of objectives, with the tail sample hidden among smaller
// ones.
func TestSLOTriggerBoundary(t *testing.T) {
	t.Parallel()
	w := newSimWorld(t, 1)
	const eps = obs.QuantileRelErr
	for i := 0; i < 300; i++ {
		slo := math.Exp(math.Log(0.05) + w.rng.Float64()*math.Log(1e5)) // 0.05ms .. 5s
		w.a.trig.models["NCF"].sloMS = slo
		for _, tc := range []struct {
			tail float64
			fire bool
		}{{slo * (1 + eps), true}, {slo / (1 + eps), false}} {
			w.a.resetLatencyWindows()
			// Window 40 at p99: the nearest-rank tail is the largest sample.
			for k := 0; k < 39; k++ {
				w.a.observe("NCF", 30, server.QueryResult{LatencyMS: tc.tail * w.rng.Float64()})
			}
			w.a.observe("NCF", 30, server.QueryResult{LatencyMS: tc.tail})
			dec, _, err := w.a.trig.decide(w.now, w.a.sense(w.now), w.a.Current())
			if err != nil {
				t.Fatal(err)
			}
			if md := dec.Models["NCF"]; md.SLOTriggered != tc.fire {
				t.Fatalf("SLO %.6gms, exact tail %.6gms (%.4f× SLO): triggered=%v (window tail %.6gms), want %v",
					slo, tc.tail, tc.tail/slo, md.SLOTriggered, md.TailMS, tc.fire)
			}
		}
	}
}

// TestTailGaugeFollowsSLOPercentile: the tail gauge on /metrics, the
// tick's journalled ModelDecision.TailMS and the /statusz window tail are
// one number — the SLOPercentile (p99) tail, distinct from the p95.
func TestTailGaugeFollowsSLOPercentile(t *testing.T) {
	t.Parallel()
	w := newSimWorld(t, 1)
	w.a.trig.models["NCF"].sloMS = 1e4 // a steady tick: no trigger resets the window
	for i := 1; i <= 40; i++ {
		// NCF's reference mix (20..59), and p95 (rank 38) and p99 (rank 40)
		// far enough apart to land in different buckets.
		w.a.observe("NCF", 19+i, server.QueryResult{LatencyMS: float64(i * i)})
	}
	w.advance(time.Second)
	w.tick()
	evs := w.a.Decisions()
	decided := evs[len(evs)-1].Models["NCF"]
	st := w.a.Status()
	win := st.Models["NCF"].Window
	if !decided.Checked || decided.TailMS != win.TailMS || win.TailMS != win.P99MS || win.TailMS == win.P95MS {
		t.Fatalf("journalled %+v, /statusz window %+v: want one p99 tail, distinct from p95", decided, win)
	}
	var buf bytes.Buffer
	if err := writePrometheus(&buf, &st, w.a.names, obs.HistSnapshot{}, obs.HistSnapshot{}, obs.NewRegistry(0, w.a.names...)); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("kairos_model_tail_latency_seconds{model=\"NCF\"} %g\n", win.TailMS/1000)
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("/metrics lacks %q:\n%s", want, buf.String())
	}
}
