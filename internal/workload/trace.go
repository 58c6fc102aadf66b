package workload

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"strconv"
)

// Trace is a serializable query trace: arrival offsets and batch sizes.
// It stands in for the Meta production trace artifact the paper replays.
type Trace struct {
	// Description records how the trace was produced.
	Description string `json:"description"`
	// Arrivals are in nondecreasing time order.
	Arrivals []Arrival `json:"arrivals"`
}

// Synthesize builds a reproducible trace of n queries at the given Poisson
// rate with batch sizes from dist.
func Synthesize(seed int64, dist BatchDistribution, ratePerSec float64, n int) Trace {
	if !finitePositive(ratePerSec) {
		panic(fmt.Sprintf("workload: rate %v is not finite and positive", ratePerSec))
	}
	rng := rand.New(rand.NewSource(seed))
	meanGapMS := 1000 / ratePerSec
	arrivals := make([]Arrival, n)
	t := 0.0
	for i := range arrivals {
		t += rng.ExpFloat64() * meanGapMS
		arrivals[i] = Arrival{AtMS: t, Batch: dist.Sample(rng)}
	}
	return Trace{
		Description: fmt.Sprintf("synthetic %s @ %.0f QPS, n=%d, seed=%d", dist.Name(), ratePerSec, n, seed),
		Arrivals:    arrivals,
	}
}

// Batches extracts just the batch sizes.
func (t Trace) Batches() []int {
	out := make([]int, len(t.Arrivals))
	for i, a := range t.Arrivals {
		out[i] = a.Batch
	}
	return out
}

// Distribution wraps the trace's batch sizes as a bootstrap distribution.
func (t Trace) Distribution() (Empirical, error) {
	return NewEmpirical(t.Batches(), "trace:"+t.Description)
}

// WriteCSV streams the trace as "arrival_ms,batch" rows with a header.
func (t Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"arrival_ms", "batch"}); err != nil {
		return err
	}
	for _, a := range t.Arrivals {
		rec := []string{strconv.FormatFloat(a.AtMS, 'f', 3, 64), strconv.Itoa(a.Batch)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a trace written by WriteCSV.
func ReadCSV(r io.Reader) (Trace, error) {
	cr := csv.NewReader(bufio.NewReader(r))
	rows, err := cr.ReadAll()
	if err != nil {
		return Trace{}, fmt.Errorf("workload: reading trace csv: %w", err)
	}
	if len(rows) == 0 {
		return Trace{}, fmt.Errorf("workload: empty trace csv")
	}
	if rows[0][0] != "arrival_ms" {
		return Trace{}, fmt.Errorf("workload: missing csv header, got %q", rows[0][0])
	}
	tr := Trace{Description: "csv import"}
	prev := -1.0
	for i, row := range rows[1:] {
		if len(row) != 2 {
			return Trace{}, fmt.Errorf("workload: row %d has %d fields, want 2", i+1, len(row))
		}
		at, err := strconv.ParseFloat(row[0], 64)
		if err != nil {
			return Trace{}, fmt.Errorf("workload: row %d arrival: %w", i+1, err)
		}
		batch, err := strconv.Atoi(row[1])
		if err != nil {
			return Trace{}, fmt.Errorf("workload: row %d batch: %w", i+1, err)
		}
		if batch < 1 || batch > MaxBatch {
			return Trace{}, fmt.Errorf("workload: row %d batch %d outside [1,%d]", i+1, batch, MaxBatch)
		}
		if at < prev {
			return Trace{}, fmt.Errorf("workload: row %d arrivals out of order", i+1)
		}
		prev = at
		tr.Arrivals = append(tr.Arrivals, Arrival{AtMS: at, Batch: batch})
	}
	return tr, nil
}

// WriteJSON encodes the trace as JSON.
func (t Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(t)
}

// ReadJSON decodes a trace written by WriteJSON.
func ReadJSON(r io.Reader) (Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return Trace{}, fmt.Errorf("workload: reading trace json: %w", err)
	}
	prev := -1.0
	for i, a := range t.Arrivals {
		if a.Batch < 1 || a.Batch > MaxBatch {
			return Trace{}, fmt.Errorf("workload: arrival %d batch %d outside [1,%d]", i, a.Batch, MaxBatch)
		}
		if a.AtMS < prev {
			return Trace{}, fmt.Errorf("workload: arrival %d out of order", i)
		}
		prev = a.AtMS
	}
	return t, nil
}
