package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"kairos"
)

// parseMix resolves a mix spec: "trace", "gaussian:MEAN:STD",
// "uniform:MIN:MAX", or "fixed:N".
func parseMix(spec string) (kairos.BatchDistribution, error) {
	parts := strings.Split(spec, ":")
	bad := func() error {
		return fmt.Errorf("bad mix %q (want trace, gaussian:M:S, uniform:LO:HI, or fixed:N)", spec)
	}
	num := func(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
	switch parts[0] {
	case "trace":
		if len(parts) != 1 {
			return nil, bad()
		}
		return kairos.DefaultTrace(), nil
	case "gaussian":
		if len(parts) != 3 {
			return nil, bad()
		}
		mean, err1 := num(parts[1])
		std, err2 := num(parts[2])
		if err1 != nil || err2 != nil {
			return nil, bad()
		}
		return kairos.Gaussian(mean, std), nil
	case "uniform":
		if len(parts) != 3 {
			return nil, bad()
		}
		lo, err1 := strconv.Atoi(parts[1])
		hi, err2 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil {
			return nil, bad()
		}
		return kairos.Uniform(lo, hi), nil
	case "fixed":
		if len(parts) != 2 {
			return nil, bad()
		}
		n, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, bad()
		}
		return kairos.Uniform(n, n), nil
	}
	return nil, bad()
}

// printPlan renders the per-model fleet plan sections.
func printPlan(prefix string, plan kairos.PlanStatus) {
	names := make([]string, 0, len(plan.Models))
	for name := range plan.Models {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mp := plan.Models[name]
		fmt.Printf("%s%-8s %v = %v ($%.2f/hr)\n", prefix, name, mp.Config, mp.Counts, mp.Cost)
	}
	fmt.Printf("%stotal $%.2f/hr after %d replan(s)\n", prefix, plan.Cost, plan.Replans)
}

// runAutopilot implements `kairosctl autopilot`, the closed-loop control
// plane end to end: it plans an initial fleet for the served model set and
// shared budget, launches the fleet through an actuation provider
// (in-process instance servers by default, or real kairosd processes with
// -provider exec), connects the central controller (one scheduler group
// per model), starts the monitor -> detect -> replan -> actuate loop plus
// the HTTP admin endpoint, and either drives a query load whose batch-size
// mix optionally shifts mid-run (the Fig. 12 scenario as one self-managing
// process) or — with -queries 0 — serves only external traffic arriving
// through the ingress front-end until interrupted.
//
//	kairosctl autopilot -model NCF -budget 0.8 -queries 2000 -rate 300 \
//	    -mix gaussian:45:15 -shift-mix gaussian:600:100 -shift 0.4 \
//	    -listen 127.0.0.1:9090
//
// The -model flag is repeatable: several models share the one budget, and
// the load is spread round-robin across them. A self-managing fleet of
// real processes serving external traffic:
//
//	kairosctl autopilot -model NCF -model MT-WND -budget 1.2 \
//	    -provider exec -kairosd ./kairosd \
//	    -ingress 127.0.0.1:8080 -ingress-tcp 127.0.0.1:8081 -queries 0
//
// While it runs, the admin endpoint serves /metrics (Prometheus text
// exposition), /statusz and /plan (JSON with per-model sections,
// including per-model ingress counters when a front-end is open),
// /tracez (flight-recorder traces), /decisionz (the autopilot's
// decision journal), and /healthz.
func runAutopilot(args []string) {
	fs := flag.NewFlagSet("kairosctl autopilot", flag.ExitOnError)
	var door kairos.IngressOptions
	fs.StringVar(&door.HTTPAddr, "ingress", "", "HTTP ingress address for external queries (e.g. 127.0.0.1:8080; empty = disabled)")
	fs.StringVar(&door.TCPAddr, "ingress-tcp", "", "binary-TCP ingress address for external queries (empty = disabled)")
	fleet := fleetFlags(fs, &door)
	policy := fs.String("policy", kairos.DefaultPolicy,
		"distribution policy: one of "+strings.Join(kairos.Policies(), ", "))
	listen := fs.String("listen", "127.0.0.1:0", "admin endpoint address")
	interval := fs.Duration("interval", 250*time.Millisecond, "control-loop period")
	cooldown := fs.Duration("cooldown", 0, "minimum gap between replans (0 = 2x interval)")
	drift := fs.Float64("drift", 0, "total-variation drift trigger (0 = default 0.15)")
	window := fs.Int("window", 2000, "live monitoring window per model (queries)")
	minObs := fs.Int("min-obs", 0, "observations before a model's triggers arm (0 = window/10)")
	scaleInFloor := fs.Float64("scale-in", 0, "utilization floor arming the scale-in trigger (0 = disabled)")
	scaleInTicks := fs.Int("scale-in-ticks", 0, "consecutive under-utilized ticks firing scale-in (0 = default 5)")
	demandHeadroom := fs.Float64("demand-headroom", 0, "cap replanned capacity at observed arrivals x (1+headroom), leaving surplus budget unspent (0 = default 0.25, negative = disabled)")
	queries := fs.Int("queries", 2000, "number of queries to send (spread across models); 0 = generate no load, serve ingress traffic until interrupted")
	rate := fs.Float64("rate", 300, "Poisson arrival rate (queries/second, model time)")
	mixSpec := fs.String("mix", "gaussian:45:15", "phase-1 batch mix (trace | gaussian:M:S | uniform:LO:HI | fixed:N)")
	shiftSpec := fs.String("shift-mix", "gaussian:600:100", "phase-2 batch mix (applies to the last -model)")
	shiftAt := fs.Float64("shift", 0.4, "fraction of queries after which the mix shifts (1 = never)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
	fs.Parse(args)

	if *pprofAddr != "" {
		go func() {
			log.Printf("kairosctl autopilot: pprof on http://%s/debug/pprof/", *pprofAddr)
			log.Println(http.ListenAndServe(*pprofAddr, nil))
		}()
	}

	// Flag validation must finish before any fleet is launched: a
	// log.Fatal below engine.Autopilot would bypass ap.Close and orphan
	// real kairosd processes under -provider exec.
	fl, err := fleet(*queries == 0)
	if err != nil {
		log.Fatalf("kairosctl autopilot: %v", err)
	}
	mix, err := parseMix(*mixSpec)
	if err != nil {
		log.Fatalf("kairosctl autopilot: %v", err)
	}
	shiftMix, err := parseMix(*shiftSpec)
	if err != nil {
		log.Fatalf("kairosctl autopilot: %v", err)
	}

	rng := rand.New(rand.NewSource(fl.seed))
	reference := make([]int, 4000)
	for i := range reference {
		reference[i] = mix.Sample(rng)
	}
	engine, err := kairos.New(append(fl.engine, kairos.WithPolicy(*policy), kairos.WithBatchSamples(reference))...)
	if err != nil {
		log.Fatal(err)
	}
	opts := fl.autopilot
	opts.Interval = *interval
	opts.Cooldown = *cooldown
	opts.DriftThreshold = *drift
	opts.Window = *window
	opts.MinObservations = *minObs
	opts.ScaleInFloor = *scaleInFloor
	opts.ScaleInTicks = *scaleInTicks
	opts.DemandHeadroom = *demandHeadroom
	opts.Logf = log.Printf
	opts.Provider = fl.newProvider(engine.Models(), log.Printf)
	ap, err := engine.Autopilot(fl.timeScale, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer ap.Close()
	adminAddr, err := ap.StartAdmin(*listen)
	if err != nil {
		// Not log.Fatal: os.Exit would skip the deferred Close and leave
		// exec-provider kairosd processes running.
		ap.Close()
		log.Fatal(err)
	}
	ap.Start()
	ctrl := ap.Controller()
	fmt.Printf("kairosctl autopilot: %v under policy %s, shared budget $%.2f/hr (%s provider)\n",
		fl.models, engine.Policy(), fl.budget, fl.provider)
	printPlan("kairosctl autopilot:   ", ap.Status().Plan)
	fmt.Printf("kairosctl autopilot: admin on http://%s (/healthz /metrics /statusz /plan /tracez /decisionz)\n", adminAddr)
	if ing := ap.Ingress(); ing != nil {
		if a := ing.HTTPAddr(); a != "" {
			fmt.Printf("kairosctl autopilot: HTTP ingress on http://%s (POST /submit, GET /stats)\n", a)
		}
		if a := ing.TCPAddr(); a != "" {
			fmt.Printf("kairosctl autopilot: binary-TCP ingress on %s\n", a)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	if *queries == 0 {
		// External serving mode: the control plane manages the fleet while
		// all traffic arrives through the ingress endpoints (validated
		// above, before the fleet was launched).
		fmt.Println("kairosctl autopilot: serving external traffic; interrupt to stop")
		<-sig
		fmt.Println("kairosctl autopilot: interrupted")
		st := ctrl.Stats()
		fmt.Printf("queries: %d submitted, %d completed, %d failed\n", st.Submitted, st.Completed, st.Failed)
		for _, name := range ctrl.Models() {
			if is, ok := st.Ingress[name]; ok {
				fmt.Printf("  %-8s ingress: %d submitted (%d http, %d tcp), %d rejected, %d completed, %d failed\n",
					name, is.Submitted, is.HTTP, is.TCP, is.Rejected, is.Completed, is.Failed)
			}
		}
		printPlan("  ", ap.Status().Plan)
		return
	}

	// The shift applies to the last model's mix; with one model that is
	// the classic Fig. 12 load change.
	shiftModel := fl.models[len(fl.models)-1]
	shiftAfter := int(float64(*queries) * *shiftAt) // -shift 1: never reached
	recs, failed := drive(ctrl, fl.models, *queries, *rate, fl.timeScale, rng, sig, func(i int, model string) int {
		if i == shiftAfter {
			fmt.Printf("kairosctl autopilot: --- %s's mix shifts after %d queries ---\n", shiftModel, i)
		}
		if i >= shiftAfter && model == shiftModel {
			return shiftMix.Sample(rng)
		}
		return mix.Sample(rng)
	})

	fmt.Println()
	summarize(ctrl, engine.Models(), recs)
	status := ap.Status()
	fmt.Println("plan:")
	printPlan("  ", status.Plan)
	if status.Plan.LastReason != "" {
		fmt.Printf("last decision: %s\n", status.Plan.LastReason)
	}
	if failed > 0 {
		ap.Close() // os.Exit skips the deferred Close; exec'd kairosd processes must not outlive us
		os.Exit(1)
	}
}
