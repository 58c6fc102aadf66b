package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"kairos"
	"kairos/internal/soak"
)

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

// runSoak implements `kairosctl soak`: it replays adversarial workload
// scenarios through the external ingress against a live autopilot-managed
// fleet while injecting faults mid-run — SIGKILLed instances, wedged
// processes, slow or partitioned networks — and asserts the serving
// invariant the whole system is built around: no admitted query is ever
// dropped. Each scenario runs against a freshly launched fleet; the
// outcome (recovery times, tail-latency trajectory, every invariant
// violation) lands in BENCH_soak.json and the exit status is non-zero if
// any invariant broke.
//
//	kairosctl soak -scenario flash-crowd -fault kill@0.4 -o BENCH_soak.json
//	kairosctl soak -scenario flash-crowd -scenario heavy-tail \
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
func runSoak(args []string) {
	fs := flag.NewFlagSet("kairosctl soak", flag.ExitOnError)
	var scenarioNames, faultSpecs []string
	fs.Func("scenario", "scenario to replay (repeatable): flash-crowd, diurnal, batch-mix-inversion, heavy-tail", func(v string) error {
		scenarioNames = append(scenarioNames, v)
		return nil
	})
	fs.Func("fault", "fault to inject (repeatable): KIND@AT[:DURATION[:DELAY]]", func(v string) error {
		faultSpecs = append(faultSpecs, v)
		return nil
	})
	// The replay clients always come in over binary TCP and present the
	// first -auth-token.
	door := kairos.IngressOptions{TCPAddr: "127.0.0.1:0", MaxQueue: 8192}
	fleet := fleetFlags(fs, &door)
	duration := fs.Float64("duration", 8000, "scenario duration in model milliseconds")
	rate := fs.Float64("rate", 100, "scenario base arrival rate (QPS)")
	emptyHold := fs.Duration("empty-hold", 30*time.Second, "how long a model's queries park when a fault takes its last instance")
	converge := fs.Duration("converge-timeout", 30*time.Second, "post-replay drain and re-convergence bound")
	out := fs.String("o", "BENCH_soak.json", "output path for the soak report")
	verbose := fs.Bool("v", false, "log per-run progress")
	fs.Parse(args)

	if len(scenarioNames) == 0 {
		scenarioNames = []string{"flash-crowd"}
	}
	if len(faultSpecs) == 0 {
		faultSpecs = []string{"kill@0.4"}
	}
	// Resolve every fault, scenario and fleet flag before launching anything.
	faults := make([]soak.FaultSpec, len(faultSpecs))
	for i, spec := range faultSpecs {
		f, err := parseFault(spec)
		if err != nil {
			log.Fatalf("kairosctl soak: %v", err)
		}
		faults[i] = f
	}
	scenarios := make([]kairos.Scenario, len(scenarioNames))
	for i, name := range scenarioNames {
		s, err := kairos.ScenarioByName(name, *duration, *rate)
		if err != nil {
			log.Fatalf("kairosctl soak: %v", err)
		}
		scenarios[i] = s
	}
	fl, err := fleet(false)
	if err != nil {
		log.Fatalf("kairosctl soak: %v", err)
	}
	logf := func(string, ...any) {}
	if *verbose {
		logf = log.Printf
	}

	bench := soak.Bench{Seed: fl.seed, TimeScale: fl.timeScale}
	decisions := make(map[string][]kairos.AutopilotDecisionEvent, len(scenarios))
	for _, sc := range scenarios {
		report, decs, err := runScenario(sc, fl, faults, *emptyHold, *converge, logf)
		if err != nil {
			log.Fatalf("kairosctl soak: %s: %v", sc.Name, err)
		}
		decisions[sc.Name] = decs
		bench.Scenarios = append(bench.Scenarios, *report)
		verdict := "PASS"
		if !report.Passed() {
			verdict = "FAIL"
		}
		fmt.Printf("kairosctl soak: %-20s %s  submitted=%d admitted=%d rejected=%d failed=%d faults=%d violations=%d cost=$%.3f/hr ($%.4f per 1k queries)\n",
			sc.Name, verdict, report.Submitted, report.Admitted, report.Rejected,
			report.Failed, len(report.Faults), len(report.Violations),
			report.PlanCost, report.CostPer1KQueries)
		for _, v := range report.Violations {
			fmt.Printf("kairosctl soak:   violation: %s\n", v)
		}
		for _, ev := range report.Faults {
			if ev.RecoveryMS >= 0 {
				fmt.Printf("kairosctl soak:   %s at t=%.0fms recovered in %.0fms\n", ev.Kind, ev.AtMS, ev.RecoveryMS)
			}
		}
	}

	// The autopilot decision journal rides next to the report: each
	// scenario's trigger→replan→actuate cycles, so replans and heals can
	// be lined up against the injected faults after the fact.
	writeJSON(*out, &bench)
	writeJSON(decisionsPath(*out), decisions)
	if !bench.Passed() {
		os.Exit(1)
	}
}

// writeJSON writes doc to path as indented JSON, failing the command on
// any error.
func writeJSON(path string, doc any) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatalf("kairosctl soak: %v", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		log.Fatalf("kairosctl soak: %v", err)
	}
	if err := f.Close(); err != nil {
		log.Fatalf("kairosctl soak: %v", err)
	}
	fmt.Printf("kairosctl soak: wrote %s\n", path)
}

// decisionsPath derives the decision-journal path from the report path:
// BENCH_soak.json -> BENCH_soak_decisions.json.
func decisionsPath(out string) string {
	ext := filepath.Ext(out)
	return strings.TrimSuffix(out, ext) + "_decisions" + ext
}

// runScenario launches a fresh fleet, replays one scenario against it,
// and tears everything down — faults never leak across runs.
func runScenario(sc kairos.Scenario, fl *fleetSpec, faults []soak.FaultSpec,
	emptyHold, converge time.Duration, logf func(string, ...any)) (*soak.Report, []kairos.AutopilotDecisionEvent, error) {
	// The initial plan is sized for the scenario's opening mix.
	rng := rand.New(rand.NewSource(fl.seed))
	reference := make([]int, 4000)
	for i := range reference {
		reference[i] = sc.Phases[0].Dist.Sample(rng)
	}
	engine, err := kairos.New(append([]kairos.Option{kairos.WithBatchSamples(reference)}, fl.engine...)...)
	if err != nil {
		return nil, nil, err
	}
	chaos := soak.WrapChaos(fl.newProvider(engine.Models(), logf))
	opts := fl.autopilot
	opts.Interval = 50 * time.Millisecond
	opts.Logf = logf
	opts.Provider = chaos
	ap, err := engine.Autopilot(fl.timeScale, opts)
	if err != nil {
		chaos.Close()
		return nil, nil, err
	}
	defer ap.Close()
	ap.Start()

	token := ""
	if tokens := fl.autopilot.Ingress.AuthTokens; len(tokens) > 0 {
		token = tokens[0]
	}
	report, err := soak.Run(soak.System{AP: ap, Chaos: chaos}, soak.Config{
		Scenario:        sc,
		Seed:            fl.seed,
		TimeScale:       fl.timeScale,
		Models:          fl.models,
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
