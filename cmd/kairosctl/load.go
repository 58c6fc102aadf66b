package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"
	"time"

	"kairos"
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
	recs, _ := drive(ctrl, modelNames, *queries, *rate, *timeScale, rng, nil,
		func(int, string) int { return dist.Sample(rng) })
	fmt.Printf("sent %d queries in %.1fs wall time\n", *queries, time.Since(start).Seconds())
	summarize(ctrl, engine.Models(), recs)
}

// drive is the one Poisson submit loop: n queries at rate (queries/second,
// model time) dilated by timeScale, round-robin across models, each batch
// drawn by batch(i, model). A signal on stop ends the submissions early;
// everything already submitted is still awaited. It returns each model's
// latencies and how many queries failed.
func drive(ctrl *kairos.Controller, models []string, n int, rate, timeScale float64, rng *rand.Rand,
	stop <-chan os.Signal, batch func(i int, model string) int) (map[string]*kairos.LatencyRecorder, int) {
	type pending struct {
		model string
		res   <-chan kairos.QueryResult
	}
	results := make([]pending, 0, n)
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
		results = append(results, pending{model, ctrl.Submit(model, batch(i, model))})
	}
	recs := make(map[string]*kairos.LatencyRecorder, len(models))
	for _, name := range models {
		recs[name] = kairos.NewLatencyRecorder(n/len(models) + 1)
	}
	failed := 0
	for _, p := range results {
		if res := <-p.res; res.Err != nil {
			failed++
		} else {
			recs[p.model].Record(res.LatencyMS)
		}
	}
	return recs, failed
}

// summarize prints the run's outcome from the controller's own accounting
// — the observability surface shared with the autopilot, no ad-hoc
// counters — and each model's latency digest against its QoS target.
func summarize(ctrl *kairos.Controller, models []kairos.Model, recs map[string]*kairos.LatencyRecorder) {
	st := ctrl.Stats()
	fmt.Printf("queries: %d submitted, %d completed, %d failed\n", st.Submitted, st.Completed, st.Failed)
	for _, m := range models {
		rec := recs[m.Name]
		fmt.Printf("%s:\n", m.Name)
		fmt.Printf("  latency (model ms): %s\n", rec.Summarize())
		fmt.Printf("  p99 %.1fms vs QoS %.0fms -> meets QoS: %v\n", rec.Percentile(99), m.QoS, rec.MeetsQoS(m.QoS, 99))
		fmt.Printf("  served by:\n")
		for _, in := range st.Models[m.Name].Instances {
			fmt.Printf("    %-12s %s: %d completed, busy %.1f model-ms\n", in.TypeName, in.Addr, in.Completed, in.BusyMS)
		}
	}
}
