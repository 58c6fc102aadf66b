package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"sort"
	"strings"

	"kairos"
)

// runTraceFile implements `kairosctl tracefile`: it generates, converts and
// summarizes query trace files — the stand-in tooling for the production
// trace artifact the paper replays (Sec. 7).
//
//	kairosctl tracefile -gen -n 10000 -rate 100 -dist lognormal -o trace.csv
//	kairosctl tracefile -scenario flash-crowd -duration 60000 -rate 100 -seed 42 -o trace.csv
//	kairosctl tracefile -summary trace.csv
//	kairosctl tracefile -convert trace.csv -o trace.json
func runTraceFile(args []string) {
	fs := flag.NewFlagSet("kairosctl tracefile", flag.ExitOnError)
	gen := fs.Bool("gen", false, "generate a synthetic trace")
	n := fs.Int("n", 10000, "number of queries to generate")
	rate := fs.Float64("rate", 100, "Poisson arrival rate (QPS)")
	distName := fs.String("dist", "lognormal", "batch distribution: lognormal or gaussian")
	seed := fs.Int64("seed", 42, "random seed")
	scenario := fs.String("scenario", "", "generate a scenario preset: flash-crowd, diurnal, batch-mix-inversion or heavy-tail")
	duration := fs.Float64("duration", 60000, "scenario duration in model milliseconds")
	out := fs.String("o", "", "output path (.csv or .json); empty = stdout csv")
	summary := fs.String("summary", "", "summarize an existing trace file")
	convert := fs.String("convert", "", "convert an existing trace file to the -o format")
	fs.Parse(args)

	switch {
	case *scenario != "":
		s, err := kairos.ScenarioByName(*scenario, *duration, *rate)
		if err != nil {
			log.Fatal(err)
		}
		if err := writeTrace(s.Trace(*seed), *out); err != nil {
			log.Fatal(err)
		}
	case *gen:
		if !(*rate > 0) || math.IsInf(*rate, 1) {
			log.Fatalf("kairosctl tracefile: -rate %v is not finite and positive", *rate)
		}
		if *n < 0 {
			log.Fatalf("kairosctl tracefile: -n %d is negative", *n)
		}
		var dist kairos.BatchDistribution
		switch *distName {
		case "lognormal":
			dist = kairos.DefaultTrace()
		case "gaussian":
			dist = kairos.DefaultGaussian()
		default:
			log.Fatalf("unknown distribution %q", *distName)
		}
		tr := kairos.SynthesizeTrace(*seed, dist, *rate, *n)
		if err := writeTrace(tr, *out); err != nil {
			log.Fatal(err)
		}
	case *summary != "":
		tr, err := readTrace(*summary)
		if err != nil {
			log.Fatal(err)
		}
		printSummary(tr)
	case *convert != "":
		tr, err := readTrace(*convert)
		if err != nil {
			log.Fatal(err)
		}
		if *out == "" {
			log.Fatal("kairosctl tracefile: -convert needs -o")
		}
		if err := writeTrace(tr, *out); err != nil {
			log.Fatal(err)
		}
	default:
		fs.Usage()
		os.Exit(2)
	}
}

func writeTrace(tr kairos.Trace, path string) error {
	if path == "" {
		return tr.WriteCSV(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".json") {
		return tr.WriteJSON(f)
	}
	return tr.WriteCSV(f)
}

func readTrace(path string) (kairos.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return kairos.Trace{}, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".json") {
		return kairos.ReadTraceJSON(f)
	}
	return kairos.ReadTraceCSV(f)
}

func printSummary(tr kairos.Trace) {
	batches := tr.Batches()
	if len(batches) == 0 {
		fmt.Println("empty trace")
		return
	}
	sort.Ints(batches)
	sum := 0
	for _, b := range batches {
		sum += b
	}
	q := func(p float64) int { return batches[int(p*float64(len(batches)-1))] }
	duration := tr.Arrivals[len(tr.Arrivals)-1].AtMS / 1000
	fmt.Printf("trace: %s\n", tr.Description)
	fmt.Printf("queries: %d over %.1fs (%.1f QPS)\n", len(batches), duration, float64(len(batches))/duration)
	fmt.Printf("batch size: mean %.1f  p50 %d  p90 %d  p99 %d  max %d\n",
		float64(sum)/float64(len(batches)), q(0.5), q(0.9), q(0.99), batches[len(batches)-1])
}
