package sim_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"kairos/internal/cloud"
	"kairos/internal/core"
	"kairos/internal/models"
	"kairos/internal/sim"
	"kairos/internal/workload"
)

// warmKairos is the kairos+warm policy: Kairos's matching over a predictor
// pre-trained from the model's surface.
func warmKairos(pool cloud.Pool, m models.Model) *core.Distributor {
	return core.NewDistributor(core.DistributorOptions{
		QoS: m.QoS, BaseType: pool.Base().Name, Predictor: core.WarmedPredictor(pool, m),
	})
}

// wholeQueue is a policy with its horizon hidden: a round shows it every
// waiting query.
type wholeQueue struct {
	sim.Distributor
	sim.Observer
}

// queueState is one round's caller: a fixed queue in enqueue order and a
// fixed fleet. It records every dispatch.
type queueState struct {
	batches    []int
	waits      []float64
	types      []string
	remaining  []float64
	queued     [][]int
	dispatched []sim.Assignment
}

func (s *queueState) Query(q int) (int, float64) { return s.batches[q], s.waits[q] }

func (s *queueState) Instance(i int, queued []int) (string, float64, []int) {
	return s.types[i], s.remaining[i], append(queued, s.queued[i]...)
}

func (s *queueState) Dispatch(q, i int) {
	s.dispatched = append(s.dispatched, sim.Assignment{Query: q, Instance: i})
}

// randomRound draws a queue and a fleet over pool. Waits straddle the
// horizon h, falling with position as a central queue's do; some rounds are
// all late, some fleets all idle, and some queries already taken by the
// caller (the server's affinity pass).
func randomRound(rng *rand.Rand, pool cloud.Pool, h float64) (*queueState, []bool) {
	ni := 1 + rng.Intn(12)
	s := &queueState{}
	allIdle := rng.Intn(3) == 0
	for range ni {
		s.types = append(s.types, pool[rng.Intn(len(pool))].Name)
		var rem float64
		var q []int
		if !allIdle && rng.Intn(2) == 0 {
			rem = rng.Float64() * h / 2
			if rng.Intn(4) == 0 {
				q = []int{1 + rng.Intn(500)}
			}
		}
		s.remaining, s.queued = append(s.remaining, rem), append(s.queued, q)
	}
	m := rng.Intn(4*ni + 24)
	lo := 0.0
	if rng.Intn(4) == 0 {
		lo = h // every query late
	}
	for range m {
		s.batches = append(s.batches, 1+rng.Intn(1+rng.Intn(1000)))
		s.waits = append(s.waits, lo+rng.Float64()*(2*h-lo))
	}
	slices.Sort(s.waits)
	slices.Reverse(s.waits)
	taken := make([]bool, m)
	if rng.Intn(3) == 0 {
		for i := range taken {
			taken[i] = rng.Intn(5) == 0
		}
	}
	return s, taken
}

// TestHorizonWindowMatchesWholeQueue: under kairos+warm, a round that shows
// the policy its fresh queries plus the oldest ni+1 late ones dispatches
// exactly what a round over the whole queue does, query for query and
// instance for instance, over seeded random queues, fleets and taken masks.
func TestHorizonWindowMatchesWholeQueue(t *testing.T) {
	pool := cloud.DefaultPool()
	rng := rand.New(rand.NewSource(1))
	var windowed, dispatched int
	for c := 0; c < 3000; c++ {
		m := models.MustByName(models.Names()[rng.Intn(len(models.Names()))])
		p := warmKairos(pool, m)
		ws, taken := randomRound(rng, pool, p.HorizonMS())
		full := *ws
		var shown, all int
		for i, w := range ws.waits {
			if !taken[i] {
				all++
				if w <= p.HorizonMS() {
					shown++
				}
			}
		}
		shown = min(all, shown+len(ws.types)+1)
		if shown < all {
			windowed++
		}

		var rw, rf sim.Round
		copy(rw.Start(len(taken)), taken)
		copy(rf.Start(len(taken)), taken)
		now := rng.Float64() * 1e6
		rw.Match(p, now, ws, len(ws.types))
		rf.Match(wholeQueue{p, p}, now, &full, len(full.types))
		if !reflect.DeepEqual(ws.dispatched, full.dispatched) {
			t.Fatalf("case %d (%s, %d instances %v, remaining %v, queued %v, %d queries, horizon %.2f ms, taken %v, waits %v, batches %v):\nwindowed dispatched %v\nwhole queue dispatched %v",
				c, m.Name, len(ws.types), ws.types, ws.remaining, ws.queued, len(ws.waits), p.HorizonMS(), taken, ws.waits, ws.batches,
				ws.dispatched, full.dispatched)
		}
		if len(full.dispatched) > 0 {
			dispatched++
		}
	}
	// The comparison means something only if the window often hides rows
	// and the rounds dispatch.
	if windowed < 1000 || dispatched < 2000 {
		t.Fatalf("only %d windowed rounds and %d dispatching rounds of 3000", windowed, dispatched)
	}
}

// burstDeep runs kairos+warm in the simulator over burst-deep's arrivals,
// the flash crowd FlashCrowd(20 s, 750 → 1800 qps) on MT-WND with 4
// g4dn.xlarge and 12 r5n.large, and returns every query.
func burstDeep(seed int64, whole bool) ([]*sim.Query, models.Model) {
	pool := cloud.ThreeTypePool()
	m := models.MustByName("MT-WND")
	spec := sim.ClusterSpec{Pool: pool, Config: cloud.Config{4, 0, 12}, Model: m}
	arrivals := workload.FlashCrowd(20000, 750, 1800, workload.DefaultTrace()).Generate(seed)
	var p sim.Distributor = warmKairos(pool, m)
	if whole {
		p = wholeQueue{p, p.(sim.Observer)}
	}
	return sim.Trace(spec, p, sim.Options{Arrivals: arrivals}), m
}

// TestSimBurstDeepAttainment: past saturation the simulator serves the
// queries it can still serve in time, as the live controller does. With
// only the oldest queries shown (a fixed-size window) it attained 0.33 to
// 0.36 here, spending the fleet on queries already late.
func TestSimBurstDeepAttainment(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		qs, m := burstDeep(seed, false)
		met := 0
		for _, q := range qs {
			if q.Latency() <= m.QoS {
				met++
			}
		}
		got := float64(met) / float64(len(qs))
		t.Logf("seed %d: attainment %.3f", seed, got)
		if got < 0.89 {
			t.Errorf("seed %d: %d of %d queries within QoS (%.3f), want at least 0.89", seed, met, len(qs), got)
		}
	}
}

// TestSimBurstDeepWindowIsExact: over a whole flash crowd the windowed
// simulator serves every query on the same instance at the same instant as
// the whole-queue one.
func TestSimBurstDeepWindowIsExact(t *testing.T) {
	windowed, _ := burstDeep(1, false)
	whole, _ := burstDeep(1, true)
	for i := range windowed {
		if *windowed[i] != *whole[i] {
			t.Fatalf("query %d: windowed %+v, whole queue %+v", i, *windowed[i], *whole[i])
		}
	}
}
