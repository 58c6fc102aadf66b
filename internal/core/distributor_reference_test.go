package core

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"kairos/internal/assignment"
	"kairos/internal/predictor"
	"kairos/internal/sim"
)

// referenceRound is what referenceAssign saw and decided, for the
// differential tests to hold the production round against.
type referenceRound struct {
	out       []sim.Assignment
	eligible  []sim.InstanceView
	cost      assignment.Matrix // waiting x eligible, never pruned
	penalized []bool
	rows      []int // the min-cost matching: rows[k] paired with cols[k]
	cols      []int
	total     float64 // its cost
}

// uniqueOptimum reports whether the reference matching is the only
// min-cost one: forbidding any of its pairs must make the optimum
// strictly dearer. Same-type instances make ties structural (their
// columns differ by a constant, so their queries can be permuted for
// free), which is why equality of cells alone does not decide it.
func (ref referenceRound) uniqueOptimum() bool {
	const forbidden = 1e9
	for k := range ref.rows {
		at := ref.rows[k]*ref.cost.C + ref.cols[k]
		was := ref.cost.Data[at]
		ref.cost.Data[at] = forbidden
		_, _, total, err := assignment.Solve(ref.cost)
		ref.cost.Data[at] = was
		if err != nil {
			panic(err)
		}
		if total <= ref.total+1e-7 {
			return false
		}
	}
	return true
}

// referenceAssign is Distributor.Assign as it stood before the round owned
// its scratch and pruned deep queues: a fresh full waiting x eligible
// matrix, assignment.Solve, and the predictor asked again for every cell.
// It is kept as the oracle of the differential tests below.
func referenceAssign(d *Distributor, waiting []sim.QueryView, instances []sim.InstanceView) referenceRound {
	slack := d.opts.LateBindSlackMS
	if slack < 0 {
		slack = 1e18
	}
	var ref referenceRound
	for _, in := range instances {
		if len(in.QueuedBatches) < d.opts.MaxPending && in.RemainingMS <= slack {
			ref.eligible = append(ref.eligible, in)
		}
	}
	if len(ref.eligible) == 0 || len(waiting) == 0 {
		return ref
	}
	drainOf := func(in sim.InstanceView) float64 {
		drain := in.RemainingMS
		for _, b := range in.QueuedBatches {
			drain += d.pred.Predict(in.TypeName, b)
		}
		return drain
	}

	m, n := len(waiting), len(ref.eligible)
	ref.cost = assignment.NewMatrix(m, n)
	penalty := d.opts.PenaltyFactor * d.opts.QoS
	deadline := d.opts.Xi * d.opts.QoS
	ref.penalized = make([]bool, m*n)
	for j, in := range ref.eligible {
		cj := d.Coefficient(in.TypeName)
		drain := drainOf(in)
		for i, q := range waiting {
			l := drain + d.pred.Predict(in.TypeName, q.Batch)
			if l+q.WaitMS > deadline {
				ref.cost.Set(i, j, penalty)
				ref.penalized[i*n+j] = true
				continue
			}
			ref.cost.Set(i, j, cj*l-d.opts.AgingFactor*q.WaitMS)
		}
	}
	rows, cols, total, err := assignment.Solve(ref.cost)
	if err != nil {
		panic("reference matching failed: " + err.Error())
	}
	ref.rows, ref.cols, ref.total = rows, cols, total
	used := make([]bool, n)
	var doomed []int
	for k := range rows {
		i, j := rows[k], cols[k]
		if ref.penalized[i*n+j] {
			feasible := false
			for _, in := range instances {
				if drainOf(in)+d.pred.Predict(in.TypeName, waiting[i].Batch)+waiting[i].WaitMS <= deadline {
					feasible = true
					break
				}
			}
			if !feasible {
				doomed = append(doomed, i)
			}
			continue
		}
		used[j] = true
		ref.out = append(ref.out, sim.Assignment{Query: waiting[i].Index, Instance: ref.eligible[j].Index})
	}
	for _, i := range doomed {
		best, bestAt := -1, 0.0
		for j, in := range ref.eligible {
			if used[j] {
				continue
			}
			at := drainOf(in) + d.pred.Predict(in.TypeName, waiting[i].Batch)
			if best == -1 || at < bestAt {
				best, bestAt = j, at
			}
		}
		if best == -1 {
			break
		}
		used[best] = true
		ref.out = append(ref.out, sim.Assignment{Query: waiting[i].Index, Instance: ref.eligible[best].Index})
	}
	return ref
}

// roundGen draws randomized rounds: a predictor over a few instance types,
// a fleet in assorted states of busyness, and a central queue.
type roundGen struct {
	rng *rand.Rand
	// maxWaitFrac bounds W_i as a fraction of QoS: small keeps every pair
	// feasible, large fills the matrix with penalty plateaus.
	maxWaitFrac float64
	// duplicates makes queries share (batch, wait) pairs, so whole rows of
	// the matrix repeat.
	duplicates bool
}

const genQoS = 100.0

var genTypes = []string{"base", "mid", "slow", "odd"}

func (g roundGen) distributor() *Distributor {
	rng := g.rng
	// Per type a random affine latency surface, learned through the online
	// predictor at a handful of probes (so both its lookup and its fitted
	// line are exercised) or handed over exactly through an oracle.
	slope := map[string]float64{}
	icept := map[string]float64{}
	for k, tn := range genTypes {
		slope[tn] = (0.01 + 0.04*rng.Float64()) * float64(k+1)
		icept[tn] = 1 + 5*rng.Float64()
	}
	surface := func(tn string, b int) float64 { return icept[tn] + slope[tn]*float64(b) }
	var pred predictor.Predictor = predictor.Oracle{Latency: surface}
	if rng.Intn(2) == 0 {
		pred = predictor.Warmed(surface, genTypes[:1+rng.Intn(len(genTypes))], []int{1, 300, 1000})
	}
	opts := DistributorOptions{QoS: genQoS, BaseType: "base", Predictor: pred}
	switch rng.Intn(4) {
	case 0:
		opts.MaxPending = 2
	case 1:
		opts.LateBindSlackMS = -1
	case 2:
		opts.AgingFactor = -1
	}
	return NewDistributor(opts)
}

func (g roundGen) round(maxQueries, maxInstances int) ([]sim.QueryView, []sim.InstanceView) {
	rng := g.rng
	waiting := make([]sim.QueryView, 1+rng.Intn(maxQueries))
	for i := range waiting {
		waiting[i] = sim.QueryView{Index: i, Batch: 1 + rng.Intn(1000), WaitMS: rng.Float64() * g.maxWaitFrac * genQoS}
		if g.duplicates && i > 0 && rng.Intn(2) == 0 {
			twin := waiting[rng.Intn(i)]
			waiting[i].Batch, waiting[i].WaitMS = twin.Batch, twin.WaitMS
		}
	}
	instances := make([]sim.InstanceView, 1+rng.Intn(maxInstances))
	for x := range instances {
		in := sim.InstanceView{Index: x, TypeName: genTypes[rng.Intn(len(genTypes))]}
		switch rng.Intn(4) {
		case 0: // busy beyond the late-bind slack
			in.RemainingMS = 10 + 40*rng.Float64()
		case 1: // about to free
			in.RemainingMS = 10 * rng.Float64()
		}
		if rng.Intn(4) == 0 {
			in.QueuedBatches = []int{1 + rng.Intn(1000)}
		}
		instances[x] = in
	}
	return waiting, instances
}

// checkRoundAgainstReference holds one production round against the
// reference and returns whether the round was tie-free (the min-cost
// matching unique), in which case the two must have dispatched identically.
func checkRoundAgainstReference(t *testing.T, d *Distributor, waiting []sim.QueryView, instances []sim.InstanceView) (tieFree bool) {
	t.Helper()
	ref := referenceAssign(d, waiting, instances)
	got := append([]sim.Assignment(nil), d.Assign(0, waiting, instances)...)
	if len(ref.eligible) == 0 {
		if got != nil {
			t.Fatalf("nothing eligible, yet assigned %v", got)
		}
		return false
	}
	n := len(ref.eligible)
	colOf := map[int]int{} // instance index -> reference column
	for j, in := range ref.eligible {
		colOf[in.Index] = j
	}

	// The pruned solve must reach the optimum of the full matrix. Assign
	// left the matrix it solved in d.cost; solve it again to read the
	// matching's cost.
	cost := assignment.Matrix{R: len(waiting), C: n, Data: d.cost}
	if len(waiting) > n {
		cost = assignment.Matrix{R: n, C: len(d.kept), Data: d.cost}
	}
	col4row, err := d.solver.Solve(cost)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for r, c := range col4row {
		total += cost.At(r, c)
	}
	if math.Abs(total-ref.total) > 1e-9*math.Max(1, math.Abs(ref.total)) {
		t.Fatalf("matching cost %v, reference optimum %v (%d waiting x %d eligible, %d kept)",
			total, ref.total, len(waiting), n, len(d.kept))
	}

	// Whatever the tie order: a valid one-to-one dispatch onto eligible
	// instances, a QoS-violating pair only for a query no instance can
	// still serve in time, and as many QoS-respecting pairs as the
	// reference found.
	feasiblePairs := func(out []sim.Assignment) int {
		seenQ, seenI, feasible := map[int]bool{}, map[int]bool{}, 0
		for _, a := range out {
			j, ok := colOf[a.Instance]
			if !ok || a.Query < 0 || a.Query >= len(waiting) || seenQ[a.Query] || seenI[a.Instance] {
				t.Fatalf("invalid dispatch %v in %v", a, out)
			}
			seenQ[a.Query], seenI[a.Instance] = true, true
			if !ref.penalized[a.Query*n+j] {
				feasible++
				continue
			}
			for k, in := range instances {
				if !pastDeadline(d, waiting[a.Query], in) {
					t.Fatalf("query %d dispatched past QoS while instance %d could still serve it", a.Query, k)
				}
			}
		}
		return feasible
	}
	if g, r := feasiblePairs(got), feasiblePairs(ref.out); g != r {
		t.Fatalf("%d QoS-respecting dispatches, reference %d", g, r)
	}
	// A doomed query waits only when every eligible instance is taken.
	if len(got) < n {
		dispatched := map[int]bool{}
		for _, a := range got {
			dispatched[a.Query] = true
		}
		for _, i := range d.doomed {
			if !dispatched[i] {
				t.Fatalf("doomed query %d left waiting with %d of %d instances free", i, n-len(got), n)
			}
		}
	}

	if !ref.uniqueOptimum() {
		return false
	}
	if len(got) != len(ref.out) {
		t.Fatalf("tie-free round: dispatched %v, reference %v", got, ref.out)
	}
	want := map[sim.Assignment]bool{}
	for _, a := range ref.out {
		want[a] = true
	}
	for _, a := range got {
		if !want[a] {
			t.Fatalf("tie-free round: dispatched %v, reference %v", got, ref.out)
		}
	}
	return true
}

// pastDeadline reports whether query q on instance in — eligible or not —
// would finish past the deadline.
func pastDeadline(d *Distributor, q sim.QueryView, in sim.InstanceView) bool {
	drain := in.RemainingMS
	for _, b := range in.QueuedBatches {
		drain += d.pred.Predict(in.TypeName, b)
	}
	return drain+d.pred.Predict(in.TypeName, q.Batch)+q.WaitMS > d.opts.Xi*d.opts.QoS
}

// TestAssignMatchesReferenceTieFree: where the optimum is unique the
// owned-scratch, pruned round must dispatch exactly the pairs the
// reference does.
func TestAssignMatchesReferenceTieFree(t *testing.T) {
	g := roundGen{rng: rand.New(rand.NewSource(12)), maxWaitFrac: 0.05}
	tieFree := 0
	for trial := 0; tieFree < 10000; trial++ {
		if trial > 40000 {
			t.Fatalf("only %d tie-free rounds in %d trials", tieFree, trial)
		}
		d := g.distributor()
		// One distributor serves a few rounds of different shapes, so stale
		// scratch from a larger round would show.
		for k := 0; k < 3; k++ {
			waiting, instances := g.round(40, 8)
			if checkRoundAgainstReference(t, d, waiting, instances) {
				tieFree++
			}
		}
	}
}

// TestAssignMatchesReferenceUnderTies: penalty plateaus and repeated rows
// make the optimum ambiguous; the pruned round must still reach the
// reference's total cost and treat held and doomed queries by the same
// rules.
func TestAssignMatchesReferenceUnderTies(t *testing.T) {
	for _, g := range []roundGen{
		{rng: rand.New(rand.NewSource(13)), maxWaitFrac: 1.2},
		{rng: rand.New(rand.NewSource(14)), maxWaitFrac: 0.9, duplicates: true},
		{rng: rand.New(rand.NewSource(15)), maxWaitFrac: 3, duplicates: true},
	} {
		for trial := 0; trial < 1500; trial++ {
			d := g.distributor()
			waiting, instances := g.round(20, 8)
			checkRoundAgainstReference(t, d, waiting, instances)
			// Deep queue: far more queries than the n*n the solve keeps.
			waiting, instances = g.round(300, 6)
			checkRoundAgainstReference(t, d, waiting, instances)
		}
	}
}

// TestAssignAllocatesNothing: after one warm-up round of the largest
// shape, no round allocates — whatever its shape, including one with no
// eligible instance and a smaller one after a larger.
func TestAssignAllocatesNothing(t *testing.T) {
	d := benchDistributor()
	type shape struct{ q, n int }
	shapes := []shape{{1, 1}, {8, 4}, {64, 16}, {1000, 16}, {4, 16}, {8, 4}}
	type round struct {
		waiting   []sim.QueryView
		instances []sim.InstanceView
	}
	rounds := make([]round, len(shapes))
	for k, s := range shapes {
		rounds[k].waiting, rounds[k].instances = benchViews(s.q, s.n, int64(k))
	}
	// Zero eligible: every instance's pending slot is full.
	busyQ, busyI := benchViews(8, 4, 99)
	for x := range busyI {
		busyI[x].QueuedBatches = []int{100}
	}
	rounds = append(rounds, round{busyQ, busyI})
	// Doomed queries: everything has waited past QoS.
	lateQ, lateI := benchViews(64, 16, 98)
	for i := range lateQ {
		lateQ[i].WaitMS = 10 * d.opts.QoS
	}
	rounds = append(rounds, round{lateQ, lateI})

	for _, r := range rounds {
		d.Assign(0, r.waiting, r.instances) // warm-up: grow the scratch
	}
	for k, r := range rounds {
		if allocs := testing.AllocsPerRun(20, func() { d.Assign(1, r.waiting, r.instances) }); allocs != 0 {
			t.Errorf("round %d (%d waiting x %d instances): %v allocs per Assign, want 0",
				k, len(r.waiting), len(r.instances), allocs)
		}
	}
}

// TestAssignGrowthAllocatesLogDepth: a queue deepening one query per round,
// a flash crowd's shape, grows the round's scratch (drain, the Eq. 8
// matrix, the per-type rows, the pruning and the solver) a logarithmic
// number of times, not once per round, and the growth changes no decision:
// every round matches what a distributor grown to full depth upfront
// decides.
func TestAssignGrowthAllocatesLogDepth(t *testing.T) {
	const depth, fleet = 2048, 16
	queries, instances := benchViews(depth, fleet, 5)
	grown := benchDistributor()
	for i := range queries {
		if i%7 == 3 {
			queries[i].WaitMS = 10 * grown.opts.QoS // doomed
		}
	}
	grown.Assign(0, queries, instances)
	want := make([][]sim.Assignment, depth+1)
	for k := 1; k <= depth; k++ {
		want[k] = slices.Clone(grown.Assign(float64(k), queries[:k], instances))
	}

	d := benchDistributor()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 1; k <= depth; k++ {
		if got := d.Assign(float64(k), queries[:k], instances); !slices.Equal(got, want[k]) {
			t.Fatalf("depth %d: growing distributor assigned %v, pre-grown %v", k, got, want[k])
		}
	}
	runtime.ReadMemStats(&after)
	// Measured 53, with or without -race: the fleet-sized buffers
	// (columns, types, result, kept union, solver) grow ~30 times, the
	// depth-sized matrix and rows ~24. Reallocating them per round costs
	// several times depth (10349 here).
	const bound = 80
	n := after.Mallocs - before.Mallocs
	t.Logf("growing the queue 1..%d over %d instances: %d allocations", depth, fleet, n)
	if n > bound {
		t.Fatalf("growing the queue 1..%d over %d instances allocated %d times, want <= %d (O(log depth))", depth, fleet, n, bound)
	}
}
