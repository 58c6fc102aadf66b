package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// result is one benchmark's digest.
type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// report is the BENCH_micro.json document.
type report struct {
	GoVersion string    `json:"go_version"`
	GOOS      string    `json:"goos"`
	GOARCH    string    `json:"goarch"`
	CPUs      int       `json:"cpus"`
	When      time.Time `json:"when"`
	Results   []result  `json:"results"`
}

// benchLine matches one result line of `go test -bench -benchmem`:
// "BenchmarkGroup/Name-N  iters  v ns/op [...]  v B/op  v allocs/op".
var benchLine = regexp.MustCompile(`^Benchmark(?:\S*/)?(\S+?)(?:-\d+)?\s+(\d+)\s+([\d.e+]+) ns/op.*?\s(\d+) B/op\s+(\d+) allocs/op`)

func parseLine(line string) (r result, ok bool) {
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		return r, false
	}
	r.Name = m[1] // the pattern admits only numerals below, so the conversions cannot fail
	r.Iterations, _ = strconv.Atoi(m[2])
	r.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
	r.BytesPerOp, _ = strconv.ParseInt(m[4], 10, 64)
	r.AllocsPerOp, _ = strconv.ParseInt(m[5], 10, 64)
	return r, true
}

// runMicrobench implements `kairosctl microbench`: it turns `go test
// -bench` output on stdin into the BENCH_micro.json trajectory CI tracks.
// go test is the only benchmark runner — every entry is a Benchmark*
// function next to the code it measures; this is only the JSON writer:
//
//	go test -run '^$' -bench . -benchmem ./internal/obs | kairosctl microbench -out BENCH_micro.json
//
// An entry's name is the benchmark's last path element without the
// Benchmark prefix and the -GOMAXPROCS suffix. The input is echoed to
// stderr; a failed benchmark or an input without results exits nonzero.
func runMicrobench(args []string) {
	fs := flag.NewFlagSet("kairosctl microbench", flag.ExitOnError)
	out := fs.String("out", "BENCH_micro.json", "output JSON path (- for stdout)")
	fs.Parse(args)
	rep := report{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUs: runtime.NumCPU(), When: time.Now().UTC()}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(os.Stderr, line)
		if strings.HasPrefix(line, "FAIL") || strings.HasPrefix(line, "--- FAIL") {
			log.Fatalf("kairosctl microbench: go test failed: %s", line)
		}
		if r, ok := parseLine(line); ok {
			rep.Results = append(rep.Results, r)
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	if len(rep.Results) == 0 {
		log.Fatal("kairosctl microbench: no benchmark results on stdin (pipe `go test -bench ... -benchmem` in)")
	}
	payload, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	payload = append(payload, '\n')
	if *out == "-" {
		os.Stdout.Write(payload)
		return
	}
	if err := os.WriteFile(*out, payload, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "kairosctl microbench: wrote %d results to %s\n", len(rep.Results), *out)
}
