package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"strings"
	"time"

	"kairos"
	"kairos/internal/obs"
)

// runLoad is kairosctl without a subcommand: drive a Poisson query load
// through a locally-built controller against running kairosd daemons. The
// distribution policy is selected by registry name. The -model flag is
// repeatable: one scheduler group is built per model, each dialed kairosd
// joins the group its banner announces, and the load is spread round-robin
// across the models.
func runLoad(args []string) {
	fs := flag.NewFlagSet("kairosctl", flag.ExitOnError)
	var modelNames []string
	fs.Func("model", "served model (repeatable)", func(v string) error {
		modelNames = append(modelNames, v)
		return nil
	})
	addrList := fs.String("addrs", "", "comma-separated kairosd addresses")
	policy := fs.String("policy", kairos.DefaultPolicy,
		"distribution policy: one of "+strings.Join(kairos.Policies(), ", "))
	rate := fs.Float64("rate", 20, "Poisson arrival rate (queries/second, model time)")
	queries := fs.Int("queries", 200, "number of queries to send (spread across models)")
	timeScale := fs.Float64("timescale", 1.0, "must match the kairosd daemons")
	seed := fs.Int64("seed", 42, "random seed for the load")
	fs.Parse(args)

	if len(modelNames) == 0 {
		modelNames = []string{"RM2"}
	}
	if *addrList == "" {
		log.Fatal("kairosctl: -addrs required")
	}
	if err := checkLoad(*rate, *queries); err != nil {
		log.Fatalf("kairosctl: %v", err)
	}

	engine, err := kairos.New(
		kairos.WithPool(kairos.DefaultPool()),
		kairos.WithModels(modelNames...),
		kairos.WithPolicy(*policy),
		kairos.WithSeed(*seed),
	)
	if err != nil {
		log.Fatal(err)
	}
	ctrl, err := engine.Connect(*timeScale, strings.Split(*addrList, ","))
	if err != nil {
		log.Fatal(err)
	}
	defer ctrl.Close()
	fmt.Printf("kairosctl: policy %s serving %v, connected to %v\n",
		engine.Policy(), ctrl.Models(), ctrl.InstanceTypes())

	rng := rand.New(rand.NewSource(*seed))
	dist := kairos.DefaultTrace()
	start := time.Now()
	drive(ctrl, modelNames, *queries, *rate, *timeScale, rng, nil,
		func(int, string) int { return dist.Sample(rng) })
	fmt.Printf("sent %d queries in %.1fs wall time\n", *queries, time.Since(start).Seconds())
	summarize(ctrl, engine.Models())
}

// checkLoad is the rule drive's inputs are held to before anything is
// dialed or launched: a rate that is not finite and positive has no
// Poisson gap (0 and +Inf turn into back-to-back or undefined waits), and
// a negative query count has no load.
func checkLoad(rate float64, queries int) error {
	if !(rate > 0) || math.IsInf(rate, 1) {
		return fmt.Errorf("-rate %v is not finite and positive", rate)
	}
	if queries < 0 {
		return fmt.Errorf("-queries %d is negative", queries)
	}
	return nil
}

// drive is the one Poisson submit loop: n queries at rate (queries/second,
// model time) dilated by timeScale, round-robin across models, each batch
// drawn by batch(i, model). A signal on stop ends the submissions early;
// everything already submitted is still awaited. It returns how many
// queries failed.
func drive(ctrl *kairos.Controller, models []string, n int, rate, timeScale float64, rng *rand.Rand,
	stop <-chan os.Signal, batch func(i int, model string) int) (failed int) {
	results := make([]<-chan kairos.QueryResult, 0, n)
submit:
	for i := 0; i < n; i++ {
		gapModelMS := rng.ExpFloat64() * 1000 / rate
		select {
		case <-stop:
			fmt.Println("kairosctl: interrupted; draining")
			break submit
		case <-time.After(time.Duration(gapModelMS * timeScale * float64(time.Millisecond))):
		}
		model := models[i%len(models)]
		results = append(results, ctrl.Submit(model, batch(i, model)))
	}
	for _, res := range results {
		if (<-res).Err != nil {
			failed++
		}
	}
	return failed
}

// summarize prints the run's outcome from the controller's own accounting
// — the observability surface shared with the autopilot, no ad-hoc
// counters — and each model's latency digest against its QoS target, read
// off the flight recorder's end-to-end histogram (every successful query,
// the samples QueryResult.LatencyMS reports).
func summarize(ctrl *kairos.Controller, models []kairos.Model) {
	st := ctrl.Stats()
	fmt.Printf("queries: %d submitted, %d completed, %d failed\n", st.Submitted, st.Completed, st.Failed)
	for _, m := range models {
		e2e := ctrl.Obs().Model(m.Name).StageSnapshot(obs.StageE2E)
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / ctrl.TimeScale }
		mean := ms(time.Duration(e2e.SumNS / int64(max(e2e.Count, 1))))
		p50, p95, p99 := ms(e2e.Quantile(0.5)), ms(e2e.Quantile(0.95)), ms(e2e.Quantile(0.99))
		fmt.Printf("%s:\n", m.Name)
		fmt.Printf("  latency (model ms): n=%d mean=%.2fms p50=%.2fms p95=%.2fms p99=%.2fms\n", e2e.Count, mean, p50, p95, p99)
		fmt.Printf("  p99 %.1fms vs QoS %.0fms -> meets QoS: %v\n", p99, m.QoS, p99 <= m.QoS)
		fmt.Printf("  served by:\n")
		for _, in := range st.Models[m.Name].Instances {
			fmt.Printf("    %-12s %s: %d completed, busy %.1f model-ms\n", in.TypeName, in.Addr, in.Completed, in.BusyMS)
		}
	}
}
