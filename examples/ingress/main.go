// Ingress example: the control plane serving traffic it did not generate
// itself. An engine plans and deploys a two-model fleet under one shared
// budget, the autopilot manages it, and — the new part — an ingress
// front-end opens two external doors into the controller: an HTTP JSON
// endpoint (POST /submit) and a raw-TCP endpoint speaking the binary wire
// codec. This process then acts as its own external clients: goroutines
// POST queries over HTTP while a binary client streams queries over TCP,
// all routed per model, all pushed back on overload by the bounded
// admission queue instead of piling up. At the end the per-model ingress
// counters come back merged into the controller's Stats snapshot — one
// observability surface for front-end and serving path.
//
// Run with: go run ./examples/ingress
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"kairos"
)

const (
	budget    = 0.9
	timeScale = 1.0
	modelA    = "NCF"
	modelB    = "MT-WND"
	perClient = 150
)

// submitHTTP posts one query to the HTTP front-end and returns its
// latency (model ms).
func submitHTTP(url, model string, batch int) (float64, error) {
	body, _ := json.Marshal(map[string]any{"model": model, "batch": batch})
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var rep struct {
		LatencyMS float64 `json:"latency_ms"`
		Error     string  `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return 0, err
	}
	if rep.Error != "" {
		return 0, fmt.Errorf("%s (HTTP %d)", rep.Error, resp.StatusCode)
	}
	return rep.LatencyMS, nil
}

// draw samples n batch sizes from mix.
func draw(rng *rand.Rand, mix kairos.BatchDistribution, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = mix.Sample(rng)
	}
	return out
}

func main() {
	// CPU-friendly reference mixes match the small batches the external
	// clients send below, so the shared budget covers both models.
	rng := rand.New(rand.NewSource(7))
	engine, err := kairos.New(
		kairos.WithPool(kairos.DefaultPool()),
		kairos.WithModels(modelA, modelB),
		kairos.WithBudget(budget),
		kairos.WithPolicy("kairos+warm"),
		kairos.WithModelSamples(modelA, draw(rng, kairos.Uniform(10, 80), 2000)),
		kairos.WithModelSamples(modelB, draw(rng, kairos.Uniform(10, 80), 2000)),
		kairos.WithSeed(7),
	)
	if err != nil {
		panic(err)
	}
	ap, err := engine.Autopilot(timeScale,
		kairos.AutopilotOptions{
			Interval:        50 * time.Millisecond,
			Window:          500,
			MinObservations: 200,
		},
		kairos.WithIngress(kairos.IngressOptions{HTTPAddr: "127.0.0.1:0", TCPAddr: "127.0.0.1:0", MaxQueue: 512}),
	)
	if err != nil {
		panic(err)
	}
	defer ap.Close()
	ap.Start()

	ing := ap.Ingress()
	httpURL := "http://" + ing.HTTPAddr() + "/submit"
	fmt.Printf("HTTP ingress:        http://%s (POST /submit)\n", ing.HTTPAddr())
	fmt.Printf("binary-TCP ingress:  %s\n\n", ing.TCPAddr())

	var wg sync.WaitGroup
	var mu sync.Mutex
	failures := 0

	// External HTTP clients, one per model.
	for i, model := range []string{modelA, modelB} {
		wg.Add(1)
		go func(worker int, model string) {
			defer wg.Done()
			rec := kairos.NewLatencyRecorder(perClient)
			failed := 0
			for q := 0; q < perClient; q++ {
				lat, err := submitHTTP(httpURL, model, 10+(q+worker)%70)
				if err != nil {
					failed++
					continue
				}
				rec.Record(lat)
				time.Sleep(2 * time.Millisecond)
			}
			mu.Lock()
			failures += failed
			fmt.Printf("HTTP %-8s %s (failed %d)\n", model, rec.Summarize(), failed)
			mu.Unlock()
		}(i, model)
	}
	// One external binary-TCP client alternating both models.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cli, err := kairos.DialIngress(ing.TCPAddr())
		if err != nil {
			panic(err)
		}
		defer cli.Close()
		rec := kairos.NewLatencyRecorder(perClient)
		failed := 0
		for q := 0; q < perClient; q++ {
			model := modelA
			if q%2 == 1 {
				model = modelB
			}
			rep, err := cli.Submit(model, 10+q%70)
			if err != nil || rep.Err != "" {
				failed++
				continue
			}
			rec.Record(rep.ServiceMS)
			time.Sleep(2 * time.Millisecond)
		}
		mu.Lock()
		failures += failed
		fmt.Printf("TCP  both     %s (failed %d)\n", rec.Summarize(), failed)
		mu.Unlock()
	}()
	wg.Wait()

	st := ap.Controller().Stats()
	fmt.Printf("\ncontroller: %d submitted, %d completed, %d failed\n", st.Submitted, st.Completed, st.Failed)
	names := make([]string, 0, len(st.Ingress))
	for name := range st.Ingress {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		is := st.Ingress[name]
		fmt.Printf("  %-8s ingress: %d submitted (%d http, %d tcp), %d rejected, %d completed, %d failed\n",
			name, is.Submitted, is.HTTP, is.TCP, is.Rejected, is.Completed, is.Failed)
	}
	if failures == 0 && st.Failed == 0 {
		fmt.Println("\nevery externally submitted query was served — none dropped, none unaccounted")
	}
}
