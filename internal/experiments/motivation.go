package experiments

import (
	"fmt"
	"strings"

	"kairos/internal/cloud"
	"kairos/internal/core"
	"kairos/internal/models"
	"kairos/internal/search"
	"kairos/internal/sim"
	"kairos/internal/workload"
)

// Table3 renders the model catalog (paper Table 3).
func Table3() string {
	rows := make([][]string, 0, 5)
	for _, m := range models.Catalog() {
		rows = append(rows, []string{m.Name, m.Description, m.Application, fmt.Sprintf("%g ms", m.QoS)})
	}
	return renderTable([]string{"Model", "Description", "Application", "QoS"}, rows)
}

// Table4 renders the instance-type catalog (paper Table 4).
func Table4() string {
	rows := make([][]string, 0, 4)
	for _, t := range cloud.DefaultPool() {
		rows = append(rows, []string{t.Name, t.Class.String(), fmt.Sprintf("$%.4g/hr", t.PricePerHour)})
	}
	return renderTable([]string{"Instance Type", "Instance Class", "Price"}, rows)
}

// Fig1Row is one configuration of Fig. 1.
type Fig1Row struct {
	Config  cloud.Config
	CostHr  float64
	QPS     float64
	Scaled  bool // homogeneous throughput scaled to the budget
	OverHom float64
}

// Fig1Result reproduces Fig. 1: heterogeneous configurations versus the
// best homogeneous one on RM2 under Ribbon's distribution mechanism.
type Fig1Result struct {
	Budget float64
	Rows   []Fig1Row
}

// Fig1 runs the experiment.
func Fig1(scale Scale) Fig1Result {
	pool := cloud.ThreeTypePool()
	env := NewEnv(scale, pool, models.MustByName("RM2"))
	res := Fig1Result{Budget: scale.Budget}
	hom := pool.Homogeneous(scale.Budget)
	homQPS := env.Measure(hom, env.RibbonFactory()) * pool.HomogeneousScale(scale.Budget)
	res.Rows = append(res.Rows, Fig1Row{Config: hom, CostHr: scale.Budget, QPS: homQPS, Scaled: true, OverHom: 1})
	for _, s := range []string{"(3,1,3)", "(2,0,9)", "(1,4,2)"} {
		cfg, err := cloud.ParseConfig(s, len(pool))
		if err != nil {
			panic(err)
		}
		qps := env.Measure(cfg, env.RibbonFactory())
		res.Rows = append(res.Rows, Fig1Row{Config: cfg, CostHr: pool.Cost(cfg), QPS: qps, OverHom: qps / homQPS})
	}
	return res
}

// String renders the result.
func (r Fig1Result) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		label := row.Config.String()
		if row.Scaled {
			label += " hom, budget-scaled"
		}
		rows = append(rows, []string{label, f3(row.CostHr), f1(row.QPS), f2(row.OverHom)})
	}
	return "Fig 1: heterogeneous vs best homogeneous (RM2, Ribbon mechanism)\n" +
		renderTable([]string{"Config", "Cost $/hr", "QPS", "vs hom"}, rows)
}

// Fig2Result reproduces Fig. 2: simulated-annealing exploration of the RM2
// space, reporting each explored configuration's throughput gain over the
// budget-scaled homogeneous baseline.
type Fig2Result struct {
	HomQPS        float64
	GainsPct      []float64
	FractionWorse float64
}

// Fig2 runs the experiment. The paper pre-filters configurations below 20
// QPS and still finds ~70% of explored configurations worse than
// homogeneous.
func Fig2(scale Scale) Fig2Result {
	pool := cloud.ThreeTypePool()
	env := NewEnv(scale, pool, models.MustByName("RM2"))
	hom := pool.Homogeneous(scale.Budget)
	homQPS := env.Measure(hom, env.RibbonFactory()) * pool.HomogeneousScale(scale.Budget)

	session := core.NewSession(func(c cloud.Config) float64 {
		return env.Measure(c, env.RibbonFactory())
	}, 0, 40, false)
	start := cloud.Config{1, 1, 1}
	out := search.SimulatedAnnealing(session, pool, scale.Budget, start, scale.Seed)

	res := Fig2Result{HomQPS: homQPS}
	worse := 0
	for _, rec := range out.History {
		if rec.QPS < 20 { // the paper's pre-filter
			continue
		}
		gain := (rec.QPS - homQPS) / homQPS * 100
		res.GainsPct = append(res.GainsPct, gain)
		if gain < 0 {
			worse++
		}
	}
	if len(res.GainsPct) > 0 {
		res.FractionWorse = float64(worse) / float64(len(res.GainsPct))
	}
	return res
}

// String renders the result.
func (r Fig2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 2: SA exploration vs homogeneous (hom = %.1f QPS)\n", r.HomQPS)
	for i, g := range r.GainsPct {
		fmt.Fprintf(&b, "  explored %2d: %+6.1f%%\n", i+1, g)
	}
	fmt.Fprintf(&b, "fraction worse than homogeneous: %.0f%%\n", r.FractionWorse*100)
	return b.String()
}

// Fig3Result reproduces Fig. 3: the same heterogeneous configurations under
// different query-distribution mechanisms.
type Fig3Result struct {
	Configs []cloud.Config
	// QPS[scheme][i] is the throughput of Configs[i] under the scheme.
	QPS map[string][]float64
	// Order fixes the scheme rendering order.
	Order []string
}

// Fig3 runs the experiment.
func Fig3(scale Scale) Fig3Result {
	pool := cloud.ThreeTypePool()
	env := NewEnv(scale, pool, models.MustByName("RM2"))
	res := Fig3Result{
		QPS:   map[string][]float64{},
		Order: []string{"RIBBON", "DRS", "CLKWRK", "ORCL"},
	}
	for _, s := range []string{"(4,0,0)", "(2,0,9)", "(3,1,3)"} {
		cfg, err := cloud.ParseConfig(s, len(pool))
		if err != nil {
			panic(err)
		}
		res.Configs = append(res.Configs, cfg)
		res.QPS["RIBBON"] = append(res.QPS["RIBBON"], env.Measure(cfg, env.RibbonFactory()))
		_, drsQPS, _ := env.TuneDRS(cfg)
		res.QPS["DRS"] = append(res.QPS["DRS"], drsQPS)
		res.QPS["CLKWRK"] = append(res.QPS["CLKWRK"], env.Measure(cfg, env.ClockworkFactory()))
		res.QPS["ORCL"] = append(res.QPS["ORCL"], env.OracleQPS(cfg))
	}
	return res
}

// String renders the result.
func (r Fig3Result) String() string {
	header := []string{"Config"}
	header = append(header, r.Order...)
	rows := make([][]string, 0, len(r.Configs))
	for i, cfg := range r.Configs {
		row := []string{cfg.String()}
		for _, scheme := range r.Order {
			row = append(row, f1(r.QPS[scheme][i]))
		}
		rows = append(rows, row)
	}
	return "Fig 3: distribution mechanism changes a configuration's throughput (RM2)\n" +
		renderTable(header, rows)
}

// Fig5Query is one query of the Fig. 5 walk-through.
type Fig5Query struct {
	Batch             int
	ArrivalMS         float64
	NaiveLatencyMS    float64
	NaiveMeets        bool
	KairosLatencyMS   float64
	KairosMeets       bool
	NaiveInstanceIdx  int
	KairosInstanceIdx int
}

// Fig5Result reproduces the Fig. 5 illustration: four queries, one GPU plus
// one CPU; naive FCFS violates QoS on one query while Kairos's matching
// serves all four in time.
type Fig5Result struct {
	Model   string
	QoS     float64
	Queries []Fig5Query
}

// Fig5 runs the deterministic walk-through on WND (QoS 25 ms): arrivals at
// t=0 of batches 500 and 50, at t=1 of batches 450 and 100. Naive FCFS
// serves the t=1 large query on the CPU that frees first and violates QoS;
// Kairos holds it for the GPU and routes the small query to the CPU,
// serving all four in time — the paper's 4-vs-3 illustration.
func Fig5() Fig5Result {
	pool := cloud.Pool{cloud.G4dnXlarge, cloud.C5n2xlarge}
	m := models.MustByName("WND")
	arrivals := []workload.Arrival{
		{AtMS: 0, Batch: 500},
		{AtMS: 0, Batch: 50},
		{AtMS: 1, Batch: 450},
		{AtMS: 1, Batch: 100},
	}
	spec := sim.ClusterSpec{Pool: pool, Config: cloud.Config{1, 1}, Model: m}
	env := NewEnv(FullScale(), pool, m)

	res := Fig5Result{Model: m.Name, QoS: m.QoS}
	naiveLat := perQueryLatencies(spec, sim.FCFSAny{}, arrivals)
	kairosLat := perQueryLatencies(spec, env.KairosFactory()(), arrivals)
	for i, a := range arrivals {
		res.Queries = append(res.Queries, Fig5Query{
			Batch:           a.Batch,
			ArrivalMS:       a.AtMS,
			NaiveLatencyMS:  naiveLat[i].lat,
			NaiveMeets:      naiveLat[i].lat <= m.QoS,
			KairosLatencyMS: kairosLat[i].lat,
			KairosMeets:     kairosLat[i].lat <= m.QoS,

			NaiveInstanceIdx:  naiveLat[i].inst,
			KairosInstanceIdx: kairosLat[i].inst,
		})
	}
	return res
}

type queryOutcome struct {
	lat  float64
	inst int
}

// perQueryLatencies replays the arrivals and extracts per-query outcomes
// from the engine's trace.
func perQueryLatencies(spec sim.ClusterSpec, dist sim.Distributor, arrivals []workload.Arrival) []queryOutcome {
	trace := sim.Trace(spec, dist, sim.Options{Arrivals: arrivals})
	out := make([]queryOutcome, len(arrivals))
	for i, q := range trace {
		out[i] = queryOutcome{lat: q.Latency(), inst: q.Instance}
	}
	return out
}

// String renders the result.
func (r Fig5Result) String() string {
	rows := make([][]string, 0, len(r.Queries))
	okStr := map[bool]string{true: "meets", false: "VIOLATES"}
	for i, q := range r.Queries {
		rows = append(rows, []string{
			fmt.Sprintf("Q%d", i+1),
			fmt.Sprintf("%d", q.Batch),
			f1(q.ArrivalMS),
			f1(q.NaiveLatencyMS), okStr[q.NaiveMeets],
			f1(q.KairosLatencyMS), okStr[q.KairosMeets],
		})
	}
	return fmt.Sprintf("Fig 5: slack-aware matching walk-through (%s, QoS %.0f ms)\n", r.Model, r.QoS) +
		renderTable([]string{"Query", "Batch", "Arrive", "FCFS lat", "FCFS", "Kairos lat", "Kairos"}, rows)
}

// Fig7Result reproduces the worked upper-bound scenarios of Fig. 7.
type Fig7Result struct {
	Scenario1, Scenario2 float64
}

// Fig7 evaluates both scenarios exactly as printed in the paper.
func Fig7() Fig7Result {
	return Fig7Result{
		Scenario1: core.UpperBoundRaw(1, 100, 90, []float64{150}, 0.6),
		Scenario2: core.UpperBoundRaw(1, 100, 90, []float64{140}, 0.7),
	}
}

// String renders the result.
func (r Fig7Result) String() string {
	return fmt.Sprintf("Fig 7: upper-bound worked examples\n"+
		"  scenario 1 (base bottleneck):      QPSmax = %.0f (paper: 225)\n"+
		"  scenario 2 (auxiliary bottleneck): QPSmax = %.1f (paper: 233)\n",
		r.Scenario1, r.Scenario2)
}
