// Command kairos-autopilot runs the closed-loop control plane end to end:
// it plans an initial fleet for the served model set and shared budget,
// launches the fleet through an actuation provider (in-process instance
// servers by default, or real kairosd processes with -provider exec),
// connects the central controller (one scheduler group per model), starts
// the monitor -> detect -> replan -> actuate loop plus the HTTP admin
// endpoint, and either drives a query load whose batch-size mix
// optionally shifts mid-run (the Fig. 12 scenario as one self-managing
// process) or — with -queries 0 — serves only external traffic arriving
// through the ingress front-end until interrupted.
//
// Usage:
//
//	kairos-autopilot -model NCF -budget 0.8 -queries 2000 -rate 300 \
//	    -mix gaussian:45:15 -shift-mix gaussian:600:100 -shift 0.4 \
//	    -listen 127.0.0.1:9090
//
// The -model flag is repeatable: several models share the one budget, and
// the load is spread round-robin across them:
//
//	kairos-autopilot -model NCF -model MT-WND -budget 1.2 -queries 3000
//
// A self-managing fleet of real processes serving external traffic:
//
//	kairos-autopilot -model NCF -model MT-WND -budget 1.2 \
//	    -provider exec -kairosd ./kairosd \
//	    -ingress 127.0.0.1:8080 -ingress-tcp 127.0.0.1:8081 -queries 0
//
// While it runs, the admin endpoint serves /metrics (Prometheus text
// exposition), /statusz and /plan (JSON with per-model sections,
// including per-model ingress counters when a front-end is open),
// /tracez (flight-recorder traces), /decisionz (the autopilot's
// decision journal), and /healthz.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"kairos"
)

// findKairosd resolves the kairosd binary for -provider exec: the -kairosd
// flag, a kairosd next to this executable, or PATH.
func findKairosd(flagValue string) (string, error) {
	if flagValue != "" {
		return flagValue, nil
	}
	if self, err := os.Executable(); err == nil {
		sibling := filepath.Join(filepath.Dir(self), "kairosd")
		if _, err := os.Stat(sibling); err == nil {
			return sibling, nil
		}
	}
	if path, err := exec.LookPath("kairosd"); err == nil {
		return path, nil
	}
	return "", fmt.Errorf("no kairosd binary found: pass -kairosd, place it next to kairos-autopilot, or add it to PATH")
}

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

func main() {
	var modelNames []string
	flag.Func("model", "served model (repeatable; models share the budget)", func(v string) error {
		modelNames = append(modelNames, v)
		return nil
	})
	budget := flag.Float64("budget", 0.8, "shared cost budget in $/hr")
	policy := flag.String("policy", kairos.DefaultPolicy,
		"distribution policy: one of "+strings.Join(kairos.Policies(), ", "))
	timeScale := flag.Float64("timescale", 1.0, "real seconds per model second")
	listen := flag.String("listen", "127.0.0.1:0", "admin endpoint address")
	interval := flag.Duration("interval", 250*time.Millisecond, "control-loop period")
	cooldown := flag.Duration("cooldown", 0, "minimum gap between replans (0 = 2x interval)")
	drift := flag.Float64("drift", 0, "total-variation drift trigger (0 = default 0.15)")
	window := flag.Int("window", 2000, "live monitoring window per model (queries)")
	minObs := flag.Int("min-obs", 0, "observations before a model's triggers arm (0 = window/10)")
	scaleInFloor := flag.Float64("scale-in", 0, "utilization floor arming the scale-in trigger (0 = disabled)")
	scaleInTicks := flag.Int("scale-in-ticks", 0, "consecutive under-utilized ticks firing scale-in (0 = default 5)")
	demandHeadroom := flag.Float64("demand-headroom", 0, "cap replanned capacity at observed arrivals x (1+headroom), leaving surplus budget unspent (0 = default 0.25, negative = disabled)")
	spotDiscount := flag.Float64("spot-discount", 0, "add a spot-market tier: every type gains a spot variant at (1-discount) x price that can be revoked on notice (0 = on-demand only)")
	spotRisk := flag.Float64("spot-risk", 0.05, "revocation-risk knob recorded on spot types (informational; used with -spot-discount)")
	onDemandFloor := flag.Float64("on-demand-floor", 0, "fraction of each model's observed arrivals that must survive on on-demand capacity alone if every spot instance is revoked at once (0 = no floor)")
	provider := flag.String("provider", "inprocess", "actuation provider: inprocess (loopback servers) or exec (real kairosd processes)")
	kairosdBin := flag.String("kairosd", "", "kairosd binary for -provider exec (default: next to this binary, then PATH)")
	var ing kairos.IngressOptions
	flag.StringVar(&ing.HTTPAddr, "ingress", "", "HTTP ingress address for external queries (e.g. 127.0.0.1:8080; empty = disabled)")
	flag.StringVar(&ing.TCPAddr, "ingress-tcp", "", "binary-TCP ingress address for external queries (empty = disabled)")
	flag.IntVar(&ing.MaxQueue, "ingress-queue", 0, "per-model bound on admitted-but-unfinished ingress queries (0 = default 1024)")
	flag.Float64Var(&ing.RateLimit, "rate-limit", 0, "per-client ingress rate limit in queries/second (0 = unlimited)")
	flag.IntVar(&ing.RateBurst, "rate-burst", 0, "ingress rate-limit burst depth (0 = max(1, -rate-limit))")
	flag.Func("auth-token", "static ingress bearer token (repeatable; any set makes auth mandatory)", func(v string) error {
		ing.AuthTokens = append(ing.AuthTokens, v)
		return nil
	})
	queries := flag.Int("queries", 2000, "number of queries to send (spread across models); 0 = generate no load, serve ingress traffic until interrupted")
	rate := flag.Float64("rate", 300, "Poisson arrival rate (queries/second, model time)")
	mixSpec := flag.String("mix", "gaussian:45:15", "phase-1 batch mix (trace | gaussian:M:S | uniform:LO:HI | fixed:N)")
	shiftSpec := flag.String("shift-mix", "gaussian:600:100", "phase-2 batch mix (applies to the last -model)")
	shiftAt := flag.Float64("shift", 0.4, "fraction of queries after which the mix shifts (1 = never)")
	seed := flag.Int64("seed", 42, "random seed")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			log.Printf("kairos-autopilot: pprof on http://%s/debug/pprof/", *pprofAddr)
			log.Println(http.ListenAndServe(*pprofAddr, nil))
		}()
	}

	if len(modelNames) == 0 {
		modelNames = []string{"NCF"}
	}
	// Flag validation must finish before any fleet is launched: a
	// log.Fatal below engine.Autopilot would bypass ap.Close and orphan
	// real kairosd processes under -provider exec.
	if *queries == 0 && ing.HTTPAddr == "" && ing.TCPAddr == "" {
		log.Fatal("kairos-autopilot: -queries 0 needs an ingress (-ingress and/or -ingress-tcp)")
	}
	mix, err := parseMix(*mixSpec)
	if err != nil {
		log.Fatalf("kairos-autopilot: %v", err)
	}
	shiftMix, err := parseMix(*shiftSpec)
	if err != nil {
		log.Fatalf("kairos-autopilot: %v", err)
	}

	pool := kairos.DefaultPool()
	if *spotDiscount > 0 {
		if *spotDiscount >= 1 {
			log.Fatalf("kairos-autopilot: -spot-discount %v outside (0,1)", *spotDiscount)
		}
		pool = pool.WithSpotMarket(*spotDiscount, *spotRisk)
	} else if *onDemandFloor > 0 {
		log.Fatal("kairos-autopilot: -on-demand-floor needs a spot market (-spot-discount)")
	}

	rng := rand.New(rand.NewSource(*seed))
	reference := make([]int, 4000)
	for i := range reference {
		reference[i] = mix.Sample(rng)
	}
	engine, err := kairos.New(
		kairos.WithPool(pool),
		kairos.WithModels(modelNames...),
		kairos.WithBudget(*budget),
		kairos.WithPolicy(*policy),
		kairos.WithBatchSamples(reference),
		kairos.WithSeed(*seed),
	)
	if err != nil {
		log.Fatal(err)
	}
	var extra []kairos.AutopilotOption
	switch *provider {
	case "inprocess":
	case "exec":
		bin, err := findKairosd(*kairosdBin)
		if err != nil {
			log.Fatalf("kairos-autopilot: %v", err)
		}
		ef := kairos.NewExecFleet(bin, *timeScale, modelNames...)
		ef.Logf = log.Printf
		extra = append(extra, kairos.WithProvider(ef))
	default:
		log.Fatalf("kairos-autopilot: unknown provider %q (want inprocess or exec)", *provider)
	}
	// Any ingress flag asks for the front door; WithIngress checks the lot
	// (a door setting without an address included) before a launch.
	if !reflect.ValueOf(ing).IsZero() {
		extra = append(extra, kairos.WithIngress(ing))
	}
	ap, err := engine.Autopilot(*timeScale, kairos.AutopilotOptions{
		Interval:        *interval,
		Cooldown:        *cooldown,
		DriftThreshold:  *drift,
		Window:          *window,
		MinObservations: *minObs,
		ScaleInFloor:    *scaleInFloor,
		ScaleInTicks:    *scaleInTicks,
		DemandHeadroom:  *demandHeadroom,
		OnDemandFloor:   *onDemandFloor,
		Logf:            log.Printf,
	}, extra...)
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
	fmt.Printf("kairos-autopilot: %v under policy %s, shared budget $%.2f/hr (%s provider)\n",
		[]string(modelNames), engine.Policy(), *budget, *provider)
	printPlan("kairos-autopilot:   ", ap.Status().Plan)
	fmt.Printf("kairos-autopilot: admin on http://%s (/healthz /metrics /statusz /plan /tracez /decisionz)\n", adminAddr)
	if ing := ap.Ingress(); ing != nil {
		if a := ing.HTTPAddr(); a != "" {
			fmt.Printf("kairos-autopilot: HTTP ingress on http://%s (POST /submit, GET /stats)\n", a)
		}
		if a := ing.TCPAddr(); a != "" {
			fmt.Printf("kairos-autopilot: binary-TCP ingress on %s\n", a)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	if *queries == 0 {
		// External serving mode: the control plane manages the fleet while
		// all traffic arrives through the ingress endpoints (validated
		// above, before the fleet was launched).
		fmt.Println("kairos-autopilot: serving external traffic; interrupt to stop")
		<-sig
		fmt.Println("kairos-autopilot: interrupted")
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
	shiftModel := modelNames[len(modelNames)-1]
	shiftAfter := int(float64(*queries) * *shiftAt)
	rec := kairos.NewLatencyRecorder(*queries)
	results := make([]<-chan kairos.QueryResult, 0, *queries)
	shifted := false
loadLoop:
	for i := 0; i < *queries; i++ {
		if i >= shiftAfter && *shiftAt < 1 && !shifted {
			shifted = true
			fmt.Printf("kairos-autopilot: --- %s's mix shifts after %d queries ---\n", shiftModel, i)
		}
		gapModelMS := rng.ExpFloat64() * 1000 / *rate
		select {
		case <-sig:
			fmt.Println("kairos-autopilot: interrupted; draining")
			break loadLoop
		case <-time.After(time.Duration(gapModelMS * *timeScale * float64(time.Millisecond))):
		}
		model := modelNames[i%len(modelNames)]
		active := mix
		if shifted && model == shiftModel {
			active = shiftMix
		}
		results = append(results, ctrl.Submit(model, active.Sample(rng)))
	}
	failed := 0
	for _, ch := range results {
		res := <-ch
		if res.Err != nil {
			failed++
			continue
		}
		rec.Record(res.LatencyMS)
	}

	st := ctrl.Stats()
	status := ap.Status()
	fmt.Printf("\nlatency (model ms): %s\n", rec.Summarize())
	fmt.Printf("queries: %d submitted, %d completed, %d failed\n", st.Submitted, st.Completed, st.Failed)
	for _, name := range ctrl.Models() {
		ms := st.Models[name]
		fmt.Printf("  %-8s %d completed, served by: ", name, ms.Completed)
		for _, in := range ms.Instances {
			fmt.Printf("%s@%s=%d ", in.TypeName, in.Addr, in.Completed)
		}
		fmt.Println()
	}
	fmt.Println("plan:")
	printPlan("  ", status.Plan)
	if status.Plan.LastReason != "" {
		fmt.Printf("last decision: %s\n", status.Plan.LastReason)
	}
	if failed > 0 {
		os.Exit(1)
	}
}
