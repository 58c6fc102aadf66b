package core

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"kairos/internal/cloud"
)

// goldenPath holds one line per goldenCases case: the plan PlanFleet
// returned for it. The file records the answers of the former
// incremental planner, so PlanFleet has to keep giving them.
const goldenPath = "testdata/planfleet.golden"

type goldenCase struct {
	pool    cloud.Pool
	demands []ModelDemand
	budget  float64
}

// goldenCases draws the pinned planning cases: perturbed three- and
// four-type pools, every odd case on a spot market, demand sets of one
// to five models with and without caps and floors, budgets from below the
// base instance's price up to $3.6/hr ($1.6/hr on spot markets, whose
// doubled type count grows the candidate space fastest), and every third
// case carrying an exact twin of its first demand so the name tie-break
// decides. A fixed tail of invalid inputs pins the validation errors and
// their order.
func goldenCases() []goldenCase {
	out := make([]goldenCase, 240)
	for i := range out {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		pool := perturbPool(rng)
		spot := i%2 == 1
		if spot {
			pool = pool.WithSpotMarket(0.3 + 0.5*rng.Float64())
		}
		k := 1 + rng.Intn(5)
		var demands []ModelDemand
		if spot || i%4 == 2 {
			demands = spotDemands(rng, k)
		} else {
			demands = randomDemands(rng, k)
		}
		if i%3 == 0 {
			tw := demands[0]
			tw.Model = twin(tw.Model, "m99")
			demands = append(demands, tw)
		}
		budget := 0.1 + 3.5*rng.Float64()
		if spot {
			budget = 0.1 + 1.5*rng.Float64()
		}
		out[i] = goldenCase{pool: pool, demands: demands, budget: budget}
	}
	pool := cloud.DefaultPool()
	good := randomDemands(rand.New(rand.NewSource(7)), 2)
	unnamed := good[1]
	unnamed.Model.Name = ""
	noSamples, badSample := good[1], good[1]
	noSamples.Samples = nil
	badSample.Samples = []int{1, 0, 2}
	return append(out,
		goldenCase{pool, good, 0},
		goldenCase{pool, good, -1},
		goldenCase{pool, nil, 1},
		goldenCase{pool, []ModelDemand{good[0], unnamed}, 1},
		goldenCase{pool, []ModelDemand{good[0], good[1], good[0]}, 1},
		goldenCase{pool, []ModelDemand{good[0], noSamples}, 1},
		goldenCase{pool, []ModelDemand{badSample, unnamed}, 1},
		goldenCase{pool, []ModelDemand{good[0], good[0], noSamples}, 0},
	)
}

// goldenLine renders one case's outcome: its plan, or its error.
func goldenLine(i int, c goldenCase) string {
	plan, err := PlanFleet(c.pool, c.demands, c.budget)
	if err != nil {
		return fmt.Sprintf("%03d error %v", i, err)
	}
	return fmt.Sprintf("%03d %s", i, plan)
}

// TestPlanFleetGolden pins PlanFleet's answers, byte for byte, and
// reports the first case that differs.
func TestPlanFleetGolden(t *testing.T) {
	t.Parallel()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	cases := goldenCases()
	if len(want) != len(cases) {
		t.Fatalf("%s has %d lines, want %d", goldenPath, len(want), len(cases))
	}
	for i, c := range cases {
		if got := goldenLine(i, c); got != want[i] {
			var names []string
			for _, d := range c.demands {
				names = append(names, d.Model.Name)
			}
			t.Fatalf("case %d (budget $%.4f/hr, spot %v, models %s):\n got  %s\n want %s",
				i, c.budget, c.pool.HasSpot(), strings.Join(names, ","), got, want[i])
		}
	}
}
