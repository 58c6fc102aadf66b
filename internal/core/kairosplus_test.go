package core

import (
	"hash/fnv"
	"testing"

	"kairos/internal/cloud"
	"kairos/internal/models"
	"kairos/internal/workload"
)

// syntheticEval builds an EvalFunc over a fixed table, counting calls.
func syntheticEval(table map[string]float64) (EvalFunc, *int) {
	calls := 0
	return func(c cloud.Config) float64 {
		calls++
		return table[c.Key()]
	}, &calls
}

func TestKairosPlusFindsArgmaxWithTightBounds(t *testing.T) {
	// Bounds equal to the truth: the first evaluation is the optimum and
	// every other configuration prunes immediately.
	ranked := []RankedConfig{
		rc(100, 3, 1, 3),
		rc(90, 2, 0, 9),
		rc(80, 4, 0, 0),
	}
	eval, calls := syntheticEval(map[string]float64{
		"(3,1,3)": 100, "(2,0,9)": 90, "(4,0,0)": 80,
	})
	res := KairosPlus(ranked, eval)
	if !res.Best.Equal(cloud.Config{3, 1, 3}) || res.BestQPS != 100 {
		t.Fatalf("best = %v @ %v", res.Best, res.BestQPS)
	}
	if *calls != 1 || res.Evaluations != 1 {
		t.Fatalf("evaluations = %d, want 1 (UB filter prunes the rest)", res.Evaluations)
	}
}

func TestKairosPlusLooseBoundsNeedMoreEvals(t *testing.T) {
	// The top bound is loose (actual much lower), so the search must keep
	// going until the UB filter closes.
	ranked := []RankedConfig{
		rc(100, 1, 0, 9), // loose: actual 40
		rc(95, 3, 1, 3),  // actual 90
		rc(85, 2, 0, 9),  // UB 85 <= 90: pruned after (3,1,3) evaluates
		rc(80, 4, 0, 0),
	}
	eval, calls := syntheticEval(map[string]float64{
		"(1,0,9)": 40, "(3,1,3)": 90, "(2,0,9)": 70, "(4,0,0)": 60,
	})
	res := KairosPlus(ranked, eval)
	if !res.Best.Equal(cloud.Config{3, 1, 3}) || res.BestQPS != 90 {
		t.Fatalf("best = %v @ %v", res.Best, res.BestQPS)
	}
	if *calls != 2 {
		t.Fatalf("evaluations = %d, want 2", *calls)
	}
	if len(res.History) != 2 || res.History[0].QPS != 40 || res.History[1].QPS != 90 {
		t.Fatalf("history = %v", res.History)
	}
}

func TestKairosPlusSubConfigPruning(t *testing.T) {
	// (2,1,3) is a sub-configuration of the already-evaluated (3,1,3); it
	// must be pruned without evaluation even though its UB is high.
	ranked := []RankedConfig{
		rc(100, 3, 1, 3), // actual 50 (loose bound keeps the search alive)
		rc(99, 2, 1, 3),  // sub-config of the evaluated (3,1,3): pruned
		rc(98, 2, 0, 9),  // actual 60: evaluated, becomes best
		rc(55, 4, 0, 0),  // UB below best: never evaluated
	}
	eval, calls := syntheticEval(map[string]float64{
		"(3,1,3)": 50, "(2,1,3)": 45, "(2,0,9)": 60, "(4,0,0)": 52,
	})
	res := KairosPlus(ranked, eval)
	if *calls != 2 {
		t.Fatalf("evaluations = %d, want 2 (sub-config and UB pruning)", *calls)
	}
	if !res.Best.Equal(cloud.Config{2, 0, 9}) {
		t.Fatalf("best = %v", res.Best)
	}
	for _, h := range res.History {
		if h.Config.Equal(cloud.Config{2, 1, 3}) {
			t.Fatal("pruned sub-configuration was evaluated")
		}
	}
}

func TestKairosPlusEmptyRanking(t *testing.T) {
	res := KairosPlus(nil, func(cloud.Config) float64 { return 0 })
	if res.Evaluations != 0 || res.Best != nil {
		t.Fatalf("res = %+v", res)
	}
}

// TestKairosPlusNeverWorseThanOneShot: Kairos+ evaluates the actual
// throughput, so its final choice can only match or beat the value of any
// single configuration it saw, including Kairos's one-shot pick when that
// pick is in the ranking.
func TestKairosPlusNeverWorseThanEvaluatedConfigs(t *testing.T) {
	e := newRM2Estimator(t)
	ranked := e.Rank(2.5)[:20]
	eval, _ := syntheticEval(nil)
	_ = eval
	// Synthetic truth: monotone transform of UB with dips, so argmax is
	// known to be the config with highest synthetic value among evaluated.
	truth := func(c cloud.Config) float64 {
		v := 0.0
		for i, n := range c {
			v += float64((i+1)*n) * 3.7
		}
		return v
	}
	res := KairosPlus(ranked, truth)
	for _, h := range res.History {
		if h.QPS > res.BestQPS {
			t.Fatalf("best %v below an evaluated config %v", res.BestQPS, h.QPS)
		}
	}
	if res.Evaluations != len(res.History) {
		t.Fatal("evaluation count mismatch")
	}
}

// algorithm1Reference is Algorithm 1 as it was written before Kairos+
// spent through a Session: its own alive map, evaluated list and result.
// It also counts the sub-configurations it pruned.
func algorithm1Reference(ranked []RankedConfig, eval EvalFunc) (res SearchResult, pruned int) {
	alive := make(map[string]bool, len(ranked))
	for _, rc := range ranked {
		alive[rc.Config.Key()] = true
	}
	var evaluated []cloud.Config
	for _, rc := range ranked {
		if !alive[rc.Config.Key()] {
			continue
		}
		if res.Evaluations > 0 && rc.UpperBound <= res.BestQPS {
			break
		}
		sub := false
		for _, ev := range evaluated {
			if rc.Config.IsSubConfigOf(ev) {
				sub = true
				break
			}
		}
		if sub {
			pruned++
			alive[rc.Config.Key()] = false
			continue
		}
		qps := eval(rc.Config)
		res.Evaluations++
		res.History = append(res.History, EvalRecord{Config: rc.Config, QPS: qps})
		alive[rc.Config.Key()] = false
		evaluated = append(evaluated, rc.Config)
		if qps > res.BestQPS || res.Best == nil {
			res.BestQPS = qps
			res.Best = rc.Config
		}
	}
	return res, pruned
}

// TestKairosPlusMatchesAlgorithm1: Kairos+ walking a Session spends
// exactly what the reference loop spends, in the same order, on the real
// $2.5 rankings of every catalog model. The synthetic truth sits well
// below each bound (10-60 %, deterministic per configuration) and one
// configuration in seven dips to a fifth of that, so both the upper-bound
// stop and sub-configuration pruning do work.
func TestKairosPlusMatchesAlgorithm1(t *testing.T) {
	pool := cloud.DefaultPool()
	samples := defaultSamples(t, 5000, workload.DefaultTrace())
	for _, m := range models.Catalog() {
		est, err := NewEstimator(pool, m, samples)
		if err != nil {
			t.Fatal(err)
		}
		ranked := est.Rank(2.5)
		bound := make(map[string]float64, len(ranked))
		for _, rc := range ranked {
			bound[rc.Config.Key()] = rc.UpperBound
		}
		truth := func(c cloud.Config) float64 {
			h := fnv.New32a()
			h.Write([]byte(c.Key()))
			v := h.Sum32()
			f := 0.1 + 0.5*float64(v%1000)/1000
			if v%7 == 0 {
				f /= 5
			}
			return bound[c.Key()] * f
		}
		want, pruned := algorithm1Reference(ranked, truth)
		got := KairosPlus(ranked, truth)
		if want.Evaluations < 2 || want.Evaluations+pruned >= len(ranked) || pruned == 0 {
			t.Fatalf("%s: reference spent %d and pruned %d of %d; the truth must make both stops work",
				m.Name, want.Evaluations, pruned, len(ranked))
		}
		if !got.Best.Equal(want.Best) || got.BestQPS != want.BestQPS || got.Evaluations != want.Evaluations {
			t.Fatalf("%s: got %v @ %v in %d evaluations, want %v @ %v in %d", m.Name,
				got.Best, got.BestQPS, got.Evaluations, want.Best, want.BestQPS, want.Evaluations)
		}
		if len(got.History) != len(want.History) {
			t.Fatalf("%s: history has %d records, want %d", m.Name, len(got.History), len(want.History))
		}
		for i, rec := range want.History {
			if !got.History[i].Config.Equal(rec.Config) || got.History[i].QPS != rec.QPS {
				t.Fatalf("%s: evaluation %d is %v @ %v, want %v @ %v", m.Name, i,
					got.History[i].Config, got.History[i].QPS, rec.Config, rec.QPS)
			}
		}
	}
}
