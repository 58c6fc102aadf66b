// Command benchmark is the repository's performance ledger: it boots the
// real serving path in-process on loopback TCP — instance servers, the
// controller under the paper's kairos+warm matching policy, the ingress
// in front — drives it from this one process, prints every metric by
// name with its unit, checks the outputs, and exits non-zero when they
// are wrong. See README.md in this directory.
//
//	go run ./benchmark                      # four workloads, end-to-end metrics
//	go run ./benchmark -traced              # … followed by the traced pass of each
//	go run ./benchmark -aa                  # the untraced set twice, differences against the bounds
//	go run ./benchmark -workload sat-tcp -seed 7 -seconds 30 -trace 0
//
// The last form is the one BENCHMARK.json's command takes: its last
// output line is one JSON object with correct, attempted, failed and
// metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// maxProcs caps GOMAXPROCS, and with it the client connections: the
// load is sized to the box, from one process.
const maxProcs = 4

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned when a run's outputs fail the correctness
// gate; the counters have been printed by then.
var errIncorrect = errors.New("outputs are not correct")

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload (knee-tcp, sat-tcp, sat-http, burst-deep) and end with the result line; empty runs all four")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "seconds one run measures")
	trace := fs.Int("trace", 0, "with -workload: 1 runs the traced pass and reports the per-layer metrics")
	traced := fs.Bool("traced", false, "after the untraced set, run the traced pass of each workload")
	aa := fs.Bool("aa", false, "run the untraced set twice and hold the differences against BENCHMARK.json's bounds; a third set on seed+1 is shown beside them")
	out := fs.String("out", "", "write the run record (JSON) to this file")
	traceOut := fs.String("trace-out", "", "span file of a traced pass (JSON lines); default .bench_out/<workload>-seed<n>.spans.jsonl")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds %v: need at least 1", *seconds)
	}
	procs := min(runtime.NumCPU(), maxProcs)
	if env := runtime.GOMAXPROCS(0); env < procs {
		procs = env // an explicit GOMAXPROCS below the box's size is honoured
	}
	if procs < 2 {
		return fmt.Errorf("GOMAXPROCS would be %d: the benchmark needs at least 2 (a 1-CPU run cannot show sharding or lock scaling, and the generator would share its only thread with the system)", procs)
	}
	runtime.GOMAXPROCS(procs)

	rec := &record{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GoMaxProcs: procs,
		Commit: commit(), Seed: *seed, Seconds: *seconds, Policy: policyName,
		Started: time.Now().UTC().Format(time.RFC3339),
	}
	opts := func(w string, traced bool) runOpts {
		o := runOpts{workload: w, seed: *seed, seconds: *seconds, traced: traced, conns: procs, traceOut: *traceOut}
		if o.traceOut == "" {
			o.traceOut = filepath.Join(".bench_out", fmt.Sprintf("%s-seed%d.spans.jsonl", w, *seed))
		}
		return o
	}
	runSet := func(seed int64, traced bool) error {
		for _, def := range workloads {
			o := opts(def.name, traced)
			o.seed = seed
			res, err := runOne(def, o)
			if err != nil {
				return err
			}
			rec.Runs = append(rec.Runs, res)
		}
		return nil
	}

	if *workload != "" {
		def, ok := findWorkload(*workload)
		if !ok {
			return fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames(), ", "))
		}
		res, err := runOne(def, opts(def.name, *trace != 0))
		if err != nil {
			return err
		}
		rec.Runs = append(rec.Runs, res)
		if err := rec.write(*out); err != nil {
			return err
		}
		if !res.Correct {
			return errIncorrect
		}
		return printResultLine(res)
	}

	// -aa: the set twice on the seed, then once on the next seed, which
	// is shown beside them and not held against anything.
	seeds := []int64{*seed}
	if *aa {
		seeds = []int64{*seed, *seed, *seed + 1}
	}
	for _, sd := range seeds {
		if err := runSet(sd, false); err != nil {
			return err
		}
	}
	if *traced {
		if err := runSet(*seed, true); err != nil {
			return err
		}
	}
	var aaErr error
	if *aa {
		aaErr = compareAA(rec)
	}
	if err := rec.write(*out); err != nil {
		return err
	}
	for _, r := range rec.Runs {
		if !r.Correct {
			return errIncorrect
		}
	}
	return aaErr
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// runOne runs a workload and prints what it measured.
func runOne(def workloadDef, o runOpts) (*result, error) {
	kind := "end-to-end"
	if o.traced {
		kind = "traced, per-layer"
	}
	fmt.Printf("== %s (%s, seed %d, %gs, %s, %d connections)\n", def.name, kind, o.seed, o.seconds, policyName, o.conns)
	t0 := time.Now()
	res, err := def.run(o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	printResult(res, time.Since(t0))
	return res, nil
}

func printResult(res *result, took time.Duration) {
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	for _, r := range res.Rungs {
		mark := ""
		if r.Grew {
			mark += " backlog-grew"
		}
		if r.Disturbed {
			mark += " DISTURBED(generator late)"
		}
		fmt.Printf("   rung %6.0f qps: sent %d ok %d failed %d unanswered %d late %d | p50 %.3f ms p%g %.3f ms (steady %.3f) attain %.4f (steady %.4f) in-slo %.4f | gen late p99 %.3f max %.3f ms | cpu %.1f us allocs %.2f%s\n",
			r.RateQPS, r.Sent, r.Succeeded, r.Failed, r.Unanswered, r.Late, r.P50MS, r.TailPct*100, r.TailMS, r.SteadyTailMS,
			r.Attainment, r.SteadyAttain, r.SteadyWithinSLO, r.LateP99MS, r.LateMaxMS, r.CPUUSPerQuery, r.AllocsPerQuery, mark)
	}
	for _, d := range defs {
		fmt.Printf("   %-32s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	var extra []string
	for k := range res.Extra {
		extra = append(extra, k)
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Printf("   (%-30s %14.6g %s)\n", k, res.Extra[k].Value, res.Extra[k].Unit)
	}
	fmt.Printf("   fail_share %.6g (%d failed of %d attempted)\n", float64(res.Failed)/math.Max(1, float64(res.Attempted)), res.Failed, res.Attempted)
	if res.SpanFile != "" {
		fmt.Printf("   %d spans written to %s\n", res.Spans, res.SpanFile)
	}
	if !res.Correct {
		fmt.Printf("   INCORRECT: %s\n", strings.Join(res.Problems, "; "))
		l, _ := json.Marshal(res.Ledger)
		fmt.Printf("   counters: %s\n", l)
	}
	fmt.Printf("   (%.1fs wall)\n", took.Seconds())
}

// printResultLine prints the contract's last line.
func printResultLine(res *result) error {
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// record is the run record -out writes.
type record struct {
	GoVersion  string    `json:"go_version"`
	NumCPU     int       `json:"nproc"`
	GoMaxProcs int       `json:"gomaxprocs"`
	Commit     string    `json:"commit,omitempty"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Policy     string    `json:"policy"`
	Started    string    `json:"started"`
	Runs       []*result `json:"runs"`
	AA         []aaRow   `json:"aa,omitempty"`
}

func (r *record) write(path string) error {
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// commit is best effort: the checkout may not be a git repository, and
// then git is not asked (it would search the directories above).
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return ""
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// benchmarkJSON is the part of BENCHMARK.json the A/A mode reads.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(path string) (*benchmarkJSON, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bj, nil
}

// aaRow is one workload × metric of an A/A comparison.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	// OtherSeed is the same metric on the next seed: reported, not gated.
	OtherSeed float64 `json:"other_seed"`
	// Worse is how much worse B is than A as a share of A, in the
	// metric's own direction; negative means B is better.
	Worse  float64 `json:"worse"`
	Bound  float64 `json:"bound"`
	Within bool    `json:"within"`
}

// compareAA holds two runs of the same code and seed against the bounds:
// the evidence that the bounds are wider than the noise.
func compareAA(rec *record) error {
	bj, err := readBenchmarkJSON("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-aa needs the bounds: %w", err)
	}
	n := len(workloads)
	fmt.Printf("== A/A: same code, same seed, twice (and the next seed beside them)\n")
	fmt.Printf("   %-12s %-18s %14s %14s %9s %7s %14s\n", "workload", "metric", "A", "B", "worse", "bound", "next seed")
	outside := 0
	for w := 0; w < n; w++ {
		a, b, c := rec.Runs[w], rec.Runs[n+w], rec.Runs[2*n+w]
		for _, bm := range bj.EndToEnd {
			row := aaRow{
				Workload: a.Workload, Metric: bm.Name, Bound: bm.Bound,
				A: a.Metrics[bm.Name].Value, B: b.Metrics[bm.Name].Value, OtherSeed: c.Metrics[bm.Name].Value,
			}
			if row.A != 0 {
				row.Worse = (row.B - row.A) / math.Abs(row.A)
				if bm.Better == "higher" {
					row.Worse = -row.Worse
				}
			}
			row.Within = row.Worse <= row.Bound
			mark := ""
			if !row.Within {
				mark = "  OUTSIDE"
				outside++
			}
			fmt.Printf("   %-12s %-18s %14.6g %14.6g %+8.2f%% %6.0f%% %14.6g%s\n", row.Workload, row.Metric, row.A, row.B, row.Worse*100, row.Bound*100, row.OtherSeed, mark)
			rec.AA = append(rec.AA, row)
		}
	}
	if outside > 0 {
		return fmt.Errorf("A/A: %d workload × metric pairs differ by more than their bound", outside)
	}
	return nil
}
