// Command kairos-soak replays adversarial workload scenarios through the
// external ingress against a live autopilot-managed fleet while injecting
// faults mid-run — SIGKILLed instances, wedged processes, slow or
// partitioned networks — and asserts the serving invariant the whole
// system is built around: no admitted query is ever dropped. Each
// scenario runs against a freshly launched fleet; the outcome (recovery
// times, tail-latency trajectory, every invariant violation) lands in
// BENCH_soak.json and the exit status is non-zero if any invariant broke.
//
// Usage:
//
//	kairos-soak -scenario flash-crowd -fault kill@0.4 -o BENCH_soak.json
//	kairos-soak -scenario flash-crowd -scenario heavy-tail \
//	    -model NCF -model MT-WND -budget 1.2 -duration 10000 -rate 120 \
//	    -fault kill@0.3 -fault stall@0.6:500ms \
//	    -provider exec -kairosd ./kairosd -o BENCH_soak.json
//
// Fault specs are KIND@AT[:DURATION[:DELAY]] with AT a fraction of the
// scenario in [0,1): kill@0.3, wedge@0.5:500ms, stall@0.6:1s,
// delay@0.2:1s:20ms, partition@0.7, preempt@0.4:800ms (DURATION is the
// spot revocation notice window; the instance is hard-killed at the
// deadline if its drain has not finished).
//
// With -spot-discount the fleet plans over a spot market: every
// instance type gains a discounted spot variant, and -on-demand-floor
// keeps a risk-bounded slice of each latency-critical model's demand on
// revocation-proof on-demand capacity.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"kairos"
	"kairos/internal/soak"
)

// findKairosd resolves the kairosd binary for -provider exec: the
// -kairosd flag, a kairosd next to this executable, or PATH.
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
	return "", fmt.Errorf("no kairosd binary found: pass -kairosd, place it next to kairos-soak, or add it to PATH")
}

// parseFault resolves one KIND@AT[:DURATION[:DELAY]] spec.
func parseFault(spec string) (soak.FaultSpec, error) {
	bad := func() (soak.FaultSpec, error) {
		return soak.FaultSpec{}, fmt.Errorf("bad fault %q (want KIND@AT[:DURATION[:DELAY]], e.g. kill@0.3, stall@0.6:500ms, delay@0.2:1s:20ms)", spec)
	}
	kindAt, rest, _ := strings.Cut(spec, ":")
	kind, atStr, ok := strings.Cut(kindAt, "@")
	if !ok {
		return bad()
	}
	at, err := strconv.ParseFloat(atStr, 64)
	if err != nil {
		return bad()
	}
	f := soak.FaultSpec{Kind: soak.FaultKind(kind), At: at}
	if rest != "" {
		durStr, delayStr, hasDelay := strings.Cut(rest, ":")
		if f.Duration, err = time.ParseDuration(durStr); err != nil {
			return bad()
		}
		if hasDelay {
			if f.Delay, err = time.ParseDuration(delayStr); err != nil {
				return bad()
			}
		}
	}
	return f, nil
}

func main() {
	var scenarioNames, modelNames, faultSpecs []string
	flag.Func("scenario", "scenario to replay (repeatable): flash-crowd, diurnal, batch-mix-inversion, heavy-tail", func(v string) error {
		scenarioNames = append(scenarioNames, v)
		return nil
	})
	flag.Func("model", "served model (repeatable; models share the budget)", func(v string) error {
		modelNames = append(modelNames, v)
		return nil
	})
	flag.Func("fault", "fault to inject (repeatable): KIND@AT[:DURATION[:DELAY]]", func(v string) error {
		faultSpecs = append(faultSpecs, v)
		return nil
	})
	budget := flag.Float64("budget", 0.8, "shared cost budget in $/hr")
	spotDiscount := flag.Float64("spot-discount", 0, "spot price discount in (0,1): 0.7 means spot costs 30% of on-demand; 0 = on-demand only")
	spotRisk := flag.Float64("spot-risk", 0.05, "assumed per-hour spot revocation probability (informational, recorded on the spot types)")
	onDemandFloor := flag.Float64("on-demand-floor", 0, "fraction of each latency-critical model's arrival rate that must stay on on-demand capacity")
	duration := flag.Float64("duration", 8000, "scenario duration in model milliseconds")
	rate := flag.Float64("rate", 100, "scenario base arrival rate (QPS)")
	timeScale := flag.Float64("timescale", 1.0, "real seconds per model second")
	seed := flag.Int64("seed", 42, "base random seed; every run is deterministic from it")
	provider := flag.String("provider", "inprocess", "actuation provider: inprocess (loopback servers) or exec (real kairosd processes)")
	kairosdBin := flag.String("kairosd", "", "kairosd binary for -provider exec (default: next to this binary, then PATH)")
	ing := kairos.IngressOptions{TCPAddr: "127.0.0.1:0"}
	flag.IntVar(&ing.MaxQueue, "ingress-queue", 8192, "per-model bound on admitted-but-unfinished ingress queries")
	flag.Float64Var(&ing.RateLimit, "rate-limit", 0, "per-client ingress rate limit in queries/second (0 = unlimited)")
	flag.IntVar(&ing.RateBurst, "rate-burst", 0, "ingress rate-limit burst depth (0 = max(1, -rate-limit))")
	flag.Func("auth-token", "static ingress bearer token (repeatable; the replay clients present the first one)", func(v string) error {
		ing.AuthTokens = append(ing.AuthTokens, v)
		return nil
	})
	emptyHold := flag.Duration("empty-hold", 30*time.Second, "how long a model's queries park when a fault takes its last instance")
	converge := flag.Duration("converge-timeout", 30*time.Second, "post-replay drain and re-convergence bound")
	out := flag.String("o", "BENCH_soak.json", "output path for the soak report")
	verbose := flag.Bool("v", false, "log per-run progress")
	flag.Parse()

	if len(scenarioNames) == 0 {
		scenarioNames = []string{"flash-crowd"}
	}
	if len(modelNames) == 0 {
		modelNames = []string{"NCF"}
	}
	if len(faultSpecs) == 0 {
		faultSpecs = []string{"kill@0.4"}
	}
	faults := make([]soak.FaultSpec, len(faultSpecs))
	for i, spec := range faultSpecs {
		f, err := parseFault(spec)
		if err != nil {
			log.Fatalf("kairos-soak: %v", err)
		}
		faults[i] = f
	}
	// Resolve every scenario before launching anything.
	scenarios := make([]kairos.Scenario, len(scenarioNames))
	for i, name := range scenarioNames {
		s, err := kairos.ScenarioByName(name, *duration, *rate)
		if err != nil {
			log.Fatalf("kairos-soak: %v", err)
		}
		scenarios[i] = s
	}
	binPath := ""
	if *provider == "exec" {
		bin, err := findKairosd(*kairosdBin)
		if err != nil {
			log.Fatalf("kairos-soak: %v", err)
		}
		binPath = bin
	} else if *provider != "inprocess" {
		log.Fatalf("kairos-soak: unknown provider %q (want inprocess or exec)", *provider)
	}
	pool := kairos.DefaultPool()
	if *spotDiscount > 0 {
		if *spotDiscount >= 1 {
			log.Fatalf("kairos-soak: -spot-discount %g out of range (want (0,1))", *spotDiscount)
		}
		pool = pool.WithSpotMarket(*spotDiscount, *spotRisk)
	} else if *onDemandFloor > 0 {
		log.Fatal("kairos-soak: -on-demand-floor needs a spot market (-spot-discount)")
	}
	logf := func(string, ...any) {}
	if *verbose {
		logf = log.Printf
	}

	bench := soak.Bench{Seed: *seed, TimeScale: *timeScale}
	decisions := make(map[string][]kairos.AutopilotDecisionEvent, len(scenarios))
	for _, sc := range scenarios {
		report, decs, err := runScenario(sc, pool, modelNames, faults, *budget, *onDemandFloor,
			*timeScale, *seed, binPath, ing, *emptyHold, *converge, logf)
		if err != nil {
			log.Fatalf("kairos-soak: %s: %v", sc.Name, err)
		}
		decisions[sc.Name] = decs
		bench.Scenarios = append(bench.Scenarios, *report)
		verdict := "PASS"
		if !report.Passed() {
			verdict = "FAIL"
		}
		fmt.Printf("kairos-soak: %-20s %s  submitted=%d admitted=%d rejected=%d failed=%d faults=%d violations=%d cost=$%.3f/hr ($%.4f per 1k queries)\n",
			sc.Name, verdict, report.Submitted, report.Admitted, report.Rejected,
			report.Failed, len(report.Faults), len(report.Violations),
			report.PlanCost, report.CostPer1KQueries)
		for _, v := range report.Violations {
			fmt.Printf("kairos-soak:   violation: %s\n", v)
		}
		for _, ev := range report.Faults {
			if ev.RecoveryMS >= 0 {
				fmt.Printf("kairos-soak:   %s at t=%.0fms recovered in %.0fms\n", ev.Kind, ev.AtMS, ev.RecoveryMS)
			}
		}
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatalf("kairos-soak: %v", err)
	}
	if err := bench.WriteJSON(f); err != nil {
		f.Close()
		log.Fatalf("kairos-soak: %v", err)
	}
	if err := f.Close(); err != nil {
		log.Fatalf("kairos-soak: %v", err)
	}
	fmt.Printf("kairos-soak: wrote %s\n", *out)

	// The autopilot decision journal rides next to the report: each
	// scenario's trigger→replan→actuate cycles, so replans and heals can
	// be lined up against the injected faults after the fact.
	decPath := decisionsPath(*out)
	df, err := os.Create(decPath)
	if err != nil {
		log.Fatalf("kairos-soak: %v", err)
	}
	denc := json.NewEncoder(df)
	denc.SetIndent("", "  ")
	if err := denc.Encode(decisions); err != nil {
		df.Close()
		log.Fatalf("kairos-soak: %v", err)
	}
	if err := df.Close(); err != nil {
		log.Fatalf("kairos-soak: %v", err)
	}
	fmt.Printf("kairos-soak: wrote %s\n", decPath)
	if !bench.Passed() {
		os.Exit(1)
	}
}

// decisionsPath derives the decision-journal path from the report path:
// BENCH_soak.json -> BENCH_soak_decisions.json.
func decisionsPath(out string) string {
	ext := filepath.Ext(out)
	return strings.TrimSuffix(out, ext) + "_decisions" + ext
}

// runScenario launches a fresh fleet, replays one scenario against it,
// and tears everything down — faults never leak across runs.
func runScenario(sc kairos.Scenario, pool kairos.Pool, modelNames []string, faults []soak.FaultSpec,
	budget, onDemandFloor, timeScale float64, seed int64, binPath string, ing kairos.IngressOptions,
	emptyHold, converge time.Duration, logf func(string, ...any)) (*soak.Report, []kairos.AutopilotDecisionEvent, error) {
	// The initial plan is sized for the scenario's opening mix.
	rng := rand.New(rand.NewSource(seed))
	reference := make([]int, 4000)
	for i := range reference {
		reference[i] = sc.Phases[0].Dist.Sample(rng)
	}
	engine, err := kairos.New(
		kairos.WithPool(pool),
		kairos.WithModels(modelNames...),
		kairos.WithBudget(budget),
		kairos.WithBatchSamples(reference),
		kairos.WithSeed(seed),
	)
	if err != nil {
		return nil, nil, err
	}
	var inner kairos.Provider
	if binPath != "" {
		ef := kairos.NewExecFleet(binPath, timeScale, modelNames...)
		ef.Logf = logf
		inner = ef
	} else {
		inner = kairos.NewFleet(timeScale, engine.Models()...)
	}
	chaos := soak.WrapChaos(inner)
	ap, err := engine.Autopilot(timeScale, kairos.AutopilotOptions{
		Interval:      50 * time.Millisecond,
		OnDemandFloor: onDemandFloor,
		Logf:          logf,
	}, kairos.WithProvider(chaos), kairos.WithIngress(ing))
	if err != nil {
		chaos.Close()
		return nil, nil, err
	}
	defer ap.Close()
	ap.Start()

	token := ""
	if len(ing.AuthTokens) > 0 {
		token = ing.AuthTokens[0]
	}
	report, err := soak.Run(soak.System{AP: ap, Chaos: chaos}, soak.Config{
		Scenario:        sc,
		Seed:            seed,
		TimeScale:       timeScale,
		Models:          modelNames,
		Faults:          faults,
		EmptyHold:       emptyHold,
		ConvergeTimeout: converge,
		Token:           token,
		Logf:            logf,
	})
	// Snapshot the decision journal before the deferred Close tears the
	// autopilot down.
	return report, ap.Decisions(), err
}
