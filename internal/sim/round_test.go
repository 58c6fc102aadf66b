package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"kairos/internal/cloud"
	"kairos/internal/workload"
)

// fakeState is a round's caller with a fixed queue and fleet; it records
// every dispatch.
type fakeState struct {
	batches    []int
	waits      []float64 // nil: query q has waited q ms
	types      []string
	queued     [][]int
	dispatched []Assignment
}

func (s *fakeState) Query(q int) (int, float64) {
	if s.waits != nil {
		return s.batches[q], s.waits[q]
	}
	return s.batches[q], float64(q)
}

func (s *fakeState) Instance(i int, queued []int) (string, float64, []int) {
	return s.types[i], 1, append(queued, s.queued[i]...)
}

func (s *fakeState) Dispatch(q, i int) { s.dispatched = append(s.dispatched, Assignment{q, i}) }

// scripted returns fixed assignments and records the views it was shown.
type scripted struct {
	out     []Assignment
	waiting []QueryView
	insts   []InstanceView
}

func (*scripted) Name() string { return "scripted" }

func (p *scripted) Assign(_ float64, w []QueryView, in []InstanceView) []Assignment {
	p.waiting, p.insts = append([]QueryView(nil), w...), append([]InstanceView(nil), in...)
	return p.out
}

// TestRoundDropsInvalidAssignments: the one rule for a policy's mistakes,
// in the simulator and the live controller alike, is that an invalid
// assignment is dropped and its query stays waiting.
func TestRoundDropsInvalidAssignments(t *testing.T) {
	s := &fakeState{batches: []int{10, 20, 30, 40, 50}, types: []string{"a", "b"}, queued: [][]int{nil, {7, 8}}}
	p := &scripted{out: []Assignment{
		{Query: 2, Instance: 0},
		{Query: 2, Instance: 1},  // twice
		{Query: 1, Instance: 1},  // held by the caller
		{Query: 4, Instance: 0},  // outside the round (Start(4))
		{Query: -1, Instance: 0}, // out of range
		{Query: 0, Instance: 2},  // no such instance
		{Query: 3, Instance: 1},
	}}
	var r Round
	taken := r.Start(4)
	taken[1] = true
	if n := r.Match(p, 0, s, 2); n != 2 {
		t.Fatalf("dispatched %d, want 2", n)
	}
	if want := []Assignment{{2, 0}, {3, 1}}; !reflect.DeepEqual(s.dispatched, want) {
		t.Fatalf("dispatched %v, want %v", s.dispatched, want)
	}
	if want := []bool{false, true, true, true}; !reflect.DeepEqual(taken, want) {
		t.Fatalf("taken %v, want %v", taken, want)
	}
	// The policy saw the unmarked queries inside the round, at their queue
	// positions, and each instance's own queued batches.
	want := []QueryView{{0, 10, 0}, {2, 30, 2}, {3, 40, 3}}
	if !reflect.DeepEqual(p.waiting, want) {
		t.Fatalf("query views %v, want %v", p.waiting, want)
	}
	if p.insts[0].QueuedBatches != nil || !reflect.DeepEqual(p.insts[1].QueuedBatches, []int{7, 8}) {
		t.Fatalf("instance views %+v", p.insts)
	}
	queue := []string{"q0", "q1", "q2", "q3", "q4"}
	got := Compact(queue, taken)
	if !reflect.DeepEqual(got, []string{"q0", "q4"}) || queue[2] != "" || queue[4] != "" {
		t.Fatalf("compacted %v, backing %q", got, queue)
	}
}

// TestRoundSkipsPolicyWithNothingExposed: a round whose every query was
// taken before the policy runs does not call it.
func TestRoundSkipsPolicyWithNothingExposed(t *testing.T) {
	s := &fakeState{batches: []int{10}, types: []string{"a"}, queued: [][]int{nil}}
	p := &scripted{out: []Assignment{{0, 0}}}
	var r Round
	r.Start(1)[0] = true
	if n := r.Match(p, 0, s, 1); n != 0 || p.waiting != nil {
		t.Fatalf("dispatched %d, policy saw %v", n, p.waiting)
	}
}

// TestRoundShowsFreshAndOldestLate: a policy with a horizon sees every
// unmarked query that waited at most the horizon and the oldest ni+1
// unmarked ones that waited longer; a policy without one sees every
// unmarked query.
func TestRoundShowsFreshAndOldestLate(t *testing.T) {
	s := &fakeState{
		batches: []int{1, 2, 3, 4, 5, 6, 7, 8, 9},
		waits:   []float64{50, 40, 30, 20, 15, 11, 10, 5, 0},
		types:   []string{"a", "b"}, queued: [][]int{nil, nil},
	}
	for _, c := range []struct {
		p    Distributor
		want []int
	}{
		{&horizoned{horizon: 10}, []int{0, 2, 3, 6, 8}},
		{&scripted{}, []int{0, 2, 3, 4, 5, 6, 8}},
	} {
		var r Round
		taken := r.Start(len(s.batches))
		taken[1], taken[7] = true, true
		r.Match(c.p, 0, s, 2)
		var got []int
		for _, v := range r.qviews {
			got = append(got, v.Index)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%T saw queries %v, want %v", c.p, got, c.want)
		}
	}
}

// horizoned is a scripted policy with a horizon.
type horizoned struct {
	scripted
	horizon float64
}

func (p *horizoned) HorizonMS() float64 { return p.horizon }

// idleFirst is an allocation-free policy: each waiting query in order onto
// the next instance with an empty backlog.
type idleFirst struct{ out []Assignment }

func (*idleFirst) Name() string { return "idle-first" }

func (p *idleFirst) Assign(_ float64, w []QueryView, in []InstanceView) []Assignment {
	p.out = p.out[:0]
	for _, v := range in {
		if k := len(p.out); k < len(w) && v.Backlog() == 0 {
			p.out = append(p.out, Assignment{Query: w[k].Index, Instance: v.Index})
		}
	}
	return p.out
}

// TestRunSteadyStateRoundsAllocateNothing: under an allocation-free policy
// a run's allocations do not grow with its length. Query records are one
// slab, the event heap is typed and sized upfront, and the round keeps its
// scratch, so four times the arrivals cost at most the few doublings of the
// buffers that follow the queue's high-water mark.
func TestRunSteadyStateRoundsAllocateNothing(t *testing.T) {
	spec := rm2Spec(cloud.Config{2, 0, 2})
	allocs := func(n int) float64 {
		rng := rand.New(rand.NewSource(3))
		arrivals := make([]workload.Arrival, n)
		at := 0.0
		for i := range arrivals {
			at += rng.ExpFloat64() * 1000 / 20
			arrivals[i] = workload.Arrival{AtMS: at, Batch: 1 + rng.Intn(300)}
		}
		p := &idleFirst{}
		return testing.AllocsPerRun(1, func() { Run(spec, p, Options{Arrivals: arrivals}) })
	}
	short, long := allocs(1000), allocs(4000)
	if long-short > 12 {
		t.Fatalf("4000 arrivals allocate %v, 1000 allocate %v: rounds allocate", long, short)
	}
}
