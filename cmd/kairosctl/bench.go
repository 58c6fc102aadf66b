package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"kairos"
)

// runBench implements `kairosctl bench`: it regenerates the paper's tables
// and figures at the paper's scale (kairos.FullScale) and measures ad-hoc
// policy/configuration pairs through the engine.
//
//	kairosctl bench -run all                  # every experiment, side by side
//	kairosctl bench -run fig8
//	kairosctl bench -run measure -policy ribbon -model RM2 -budget 2.5
//	kairosctl bench -list
//	kairosctl bench -list-policies
func runBench(args []string) {
	fs := flag.NewFlagSet("kairosctl bench", flag.ExitOnError)
	run := fs.String("run", "all", "experiment id (e.g. fig8), 'all', or 'measure'")
	list := fs.Bool("list", false, "list experiment ids and exit")
	listPolicies := fs.Bool("list-policies", false, "list registered policy names and exit")
	policy := fs.String("policy", kairos.DefaultPolicy,
		"distribution policy for -run measure: one of "+strings.Join(kairos.Policies(), ", "))
	modelName := fs.String("model", "RM2", "served model for -run measure")
	seed := fs.Int64("seed", 0, "override the random seed (0 keeps the default)")
	budget := fs.Float64("budget", 0, "override the cost budget in $/hr (0 keeps the default)")
	fs.Parse(args)

	if *list {
		fmt.Println(strings.Join(kairos.ExperimentIDs(), "\n"))
		return
	}
	if *listPolicies {
		fmt.Println(strings.Join(kairos.Policies(), "\n"))
		return
	}

	scale := kairos.FullScale()
	if *seed != 0 {
		scale.Seed = *seed
	}
	if *budget != 0 {
		scale.Budget = *budget
	}

	if *run == "measure" {
		if err := measure(*policy, *modelName, scale); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	// The experiment runners fix their own policies and models; reject the
	// measure-only flags rather than silently ignoring them.
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "policy" || f.Name == "model" {
			fmt.Fprintf(os.Stderr, "-%s only applies to -run measure\n", f.Name)
			os.Exit(2)
		}
	})

	ids := []string{*run}
	if *run == "all" {
		ids = kairos.ExperimentIDs()
	}
	// The experiments share no mutable state and seed their own streams, so
	// they all run at once (GOMAXPROCS bounds the parallelism) and each
	// prints, in registry order, as soon as it and every earlier one are
	// done: the output cannot depend on the order they finish in.
	type result struct {
		out  string
		err  error
		wall time.Duration
	}
	done := make([]chan result, len(ids))
	for i, id := range ids {
		done[i] = make(chan result, 1)
		go func() {
			start := time.Now()
			out, err := kairos.RunExperiment(id, scale)
			done[i] <- result{out, err, time.Since(start)}
		}()
	}
	for i, id := range ids {
		r := <-done[i]
		if r.err != nil {
			fmt.Fprintln(os.Stderr, r.err)
			os.Exit(1)
		}
		fmt.Printf("=== %s (%.1fs) ===\n%s\n", id, r.wall.Seconds(), r.out)
	}
}

// measure plans a configuration for the budget and reports the policy's
// allowable throughput on it — the engine lifecycle end to end, with the
// policy resolved by name through the registry.
func measure(policy, modelName string, scale kairos.ExperimentScale) error {
	engine, err := kairos.New(
		kairos.WithPool(kairos.DefaultPool()),
		kairos.WithModels(modelName),
		kairos.WithBudget(scale.Budget),
		kairos.WithPolicy(policy),
		kairos.WithSeed(scale.Seed),
		kairos.WithProbeQueries(scale.ProbeQueries),
		kairos.WithPrecisionFrac(scale.PrecisionFrac),
	)
	if err != nil {
		return err
	}
	cfg, err := engine.Plan()
	if err != nil {
		return err
	}
	ub, err := engine.UpperBound(cfg)
	if err != nil {
		return err
	}
	start := time.Now()
	qps, err := engine.AllowableThroughput(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("model %s, budget $%.2f/hr -> plan %v (cost $%.3f/hr, UB %.1f QPS)\n",
		modelName, engine.Budget(), cfg, engine.Pool().Cost(cfg), ub)
	fmt.Printf("policy %-18s allowable throughput %.1f QPS (%.1fs)\n",
		engine.Policy(), qps, time.Since(start).Seconds())
	return nil
}
