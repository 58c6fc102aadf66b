package experiments

import (
	"fmt"
	"strings"

	"kairos/internal/cloud"
	"kairos/internal/core"
	"kairos/internal/models"
	"kairos/internal/workload"
)

// Fig13Row is one model's upper-bound ranking validation.
type Fig13Row struct {
	Model string
	// Configs are the top-20 configurations by upper bound (descending).
	Configs []cloud.Config
	// UpperBounds are their estimated bounds.
	UpperBounds []float64
	// ActualQPS are their measured throughputs under Kairos distribution.
	ActualQPS []float64
	// PickIndex is Kairos's one-shot selection within Configs (-1 if the
	// similarity pick fell outside the top-20).
	PickIndex int
	// BestIndex is the measured argmax within Configs.
	BestIndex int
}

// Fig13Result reproduces Fig. 13: actual throughput of the top-20 highest
// upper-bound configurations, with Kairos's similarity-based pick starred.
type Fig13Result struct {
	Rows []Fig13Row
}

// Fig13 runs the experiment. Top is the per-model candidate count (the
// paper plots 20; quick runs may use fewer).
func Fig13(scale Scale, top int) Fig13Result {
	if top <= 0 {
		top = 20
	}
	res := Fig13Result{}
	for _, m := range models.Catalog() {
		env := NewEnv(scale, cloud.DefaultPool(), m)
		ranked := env.Estimator().Rank(scale.Budget)
		if len(ranked) > top {
			ranked = ranked[:top]
		}
		pick := core.SelectOneShot(ranked)
		row := Fig13Row{Model: m.Name, PickIndex: -1}
		bestQPS := -1.0
		for i, rc := range ranked {
			qps := env.Measure(rc.Config, env.KairosFactory())
			row.Configs = append(row.Configs, rc.Config)
			row.UpperBounds = append(row.UpperBounds, rc.UpperBound)
			row.ActualQPS = append(row.ActualQPS, qps)
			if rc.Config.Equal(pick) {
				row.PickIndex = i
			}
			if qps > bestQPS {
				bestQPS = qps
				row.BestIndex = i
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// String renders the result.
func (r Fig13Result) String() string {
	var b strings.Builder
	b.WriteString("Fig 13: actual throughput of top upper-bound configurations (* = Kairos pick, ! = measured best)\n")
	for _, row := range r.Rows {
		maxQPS := 0.0
		for _, q := range row.ActualQPS {
			if q > maxQPS {
				maxQPS = q
			}
		}
		fmt.Fprintf(&b, "%s:\n", row.Model)
		for i := range row.Configs {
			mark := "  "
			if i == row.PickIndex {
				mark = "* "
			}
			if i == row.BestIndex {
				mark = "! "
				if i == row.PickIndex {
					mark = "*!"
				}
			}
			fmt.Fprintf(&b, "  %s %-12s UB=%-8.1f QPS=%-8.1f (%.0f%% of max)\n",
				mark, row.Configs[i], row.UpperBounds[i], row.ActualQPS[i], row.ActualQPS[i]/maxQPS*100)
		}
	}
	return b.String()
}

// Fig14Row is one configuration of the Fig. 14 study.
type Fig14Row struct {
	Config     cloud.Config
	UpperBound float64
	QPS        map[string]float64
}

// Fig14Result reproduces Fig. 14: the top upper-bound RM2 configurations
// re-measured under each query-distribution scheme, with the UB curve and
// the Oracle reference.
type Fig14Result struct {
	Rows      []Fig14Row
	OracleQPS float64
	Order     []string
}

// Fig14 runs the experiment. Top defaults to the paper's 12.
func Fig14(scale Scale, top int) Fig14Result {
	if top <= 0 {
		top = 12
	}
	env := NewEnv(scale, cloud.DefaultPool(), models.MustByName("RM2"))
	ranked := env.Estimator().Rank(scale.Budget)
	if len(ranked) > top {
		ranked = ranked[:top]
	}
	res := Fig14Result{Order: []string{"RIBBON", "DRS", "CLKWRK", "KAIROS"}}
	_, res.OracleQPS = env.OracleBest()
	drsThr, _, _ := env.TuneDRS(ranked[0].Config)
	for _, rc := range ranked {
		row := Fig14Row{Config: rc.Config, UpperBound: rc.UpperBound, QPS: map[string]float64{}}
		row.QPS["RIBBON"] = env.Measure(rc.Config, env.RibbonFactory())
		row.QPS["DRS"] = env.Measure(rc.Config, env.DRSFactory(drsThr))
		row.QPS["CLKWRK"] = env.Measure(rc.Config, env.ClockworkFactory())
		row.QPS["KAIROS"] = env.Measure(rc.Config, env.KairosFactory())
		res.Rows = append(res.Rows, row)
	}
	return res
}

// String renders the result.
func (r Fig14Result) String() string {
	header := []string{"Config", "UB"}
	header = append(header, r.Order...)
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		cells := []string{row.Config.String(), f1(row.UpperBound)}
		for _, s := range r.Order {
			cells = append(cells, f1(row.QPS[s]))
		}
		rows = append(rows, cells)
	}
	return fmt.Sprintf("Fig 14: distribution scheme swap on top-UB RM2 configs (Oracle best = %.1f QPS)\n", r.OracleQPS) +
		renderTable(header, rows)
}

// Fig15Result reproduces Fig. 15: Kairos's gains when (a) the budget scales
// 4x and (b) the QoS targets are 20% higher.
type Fig15Result struct {
	BudgetX4 Fig8Result
	HighQoS  Fig8Result
}

// Fig15 runs both variants.
func Fig15(scale Scale) Fig15Result {
	big := scale
	big.Budget = scale.Budget * 4
	res := Fig15Result{}
	res.BudgetX4 = fig8With(big, func(m models.Model) Env {
		return NewEnv(big, cloud.DefaultPool(), m)
	})
	res.HighQoS = fig8With(scale, func(m models.Model) Env {
		return NewEnv(scale, cloud.DefaultPool(), m.WithQoS(m.QoS*1.2))
	})
	return res
}

// String renders the result.
func (r Fig15Result) String() string {
	return "Fig 15a: budget x4\n" + fig8Body(r.BudgetX4) +
		"Fig 15b: QoS targets +20%\n" + fig8Body(r.HighQoS)
}

// fig8Body renders a Fig8Result without its caption.
func fig8Body(r Fig8Result) string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Model, row.Pick.String(), f1(row.HomQPS), f1(row.KairosQPS), f2(row.Gain)})
	}
	return renderTable([]string{"Model", "Kairos pick", "Hom QPS (scaled)", "Kairos QPS", "Gain"}, rows)
}

// Fig16Result reproduces Fig. 16: Kairos's gains when (a) batch sizes are
// Gaussian and (b) 5% Gaussian white noise perturbs the latencies the
// cloud actually delivers while the controller predicts the clean values
// — the paper's "emulate performance variability in the cloud". (The
// noise is not put on the predictions: fresh noise on every prediction
// call creates a winner's-curse selection effect — the min-cost matching
// picks whichever placement drew the most optimistic noise — that no real
// system exhibits.)
type Fig16Result struct {
	Gaussian Fig8Result
	Noise    Fig8Result
}

// Fig16 runs both variants.
func Fig16(scale Scale) Fig16Result {
	res := Fig16Result{}
	res.Gaussian = fig8With(scale, func(m models.Model) Env {
		env := NewEnv(scale, cloud.DefaultPool(), m)
		env.Batches = workload.DefaultGaussian()
		return env
	})
	res.Noise = fig8With(scale, func(m models.Model) Env {
		env := NewEnv(scale, cloud.DefaultPool(), m)
		env.Noise = 0.05
		return env
	})
	return res
}

// String renders the result.
func (r Fig16Result) String() string {
	return "Fig 16a: Gaussian batch sizes\n" + fig8Body(r.Gaussian) +
		"Fig 16b: 5% latency noise\n" + fig8Body(r.Noise)
}
