package main

import (
	"bufio"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"kairos"
	"kairos/internal/assignment"
	"kairos/internal/models"
	"kairos/internal/obs"
	"kairos/internal/server"
	"kairos/internal/sim"
)

// Everything in this file observes the layers from outside: a decorator
// the benchmark hands to the controller in place of the bare policy,
// public snapshots, and isolated replays of public functions. Spans
// inside the program are a later change.

// epoch anchors every span timestamp of the process.
var epoch = time.Now()

func sinceEpoch() int64 { return time.Since(epoch).Nanoseconds() }

// assignSpan is one scheduling round as the decorator saw it.
type assignSpan struct {
	startNS, endNS       int64
	rows, cols, assigned int32
}

// assignInput is a deep copy of one round's input, kept for the
// allocation replay.
type assignInput struct {
	nowMS     float64
	waiting   []sim.QueryView
	instances []sim.InstanceView
}

const (
	maxRecordedInputs = 2000
	// maxRecordedRows bounds the replay corpus' memory: burst-deep offers
	// rounds of ~1000 rows, and 2000 of those would be 60 MB of views.
	maxRecordedRows = 200_000
)

// assignTracer wraps a model's policy: it times every Assign, counts
// rows offered against assignments made, and keeps a thinned sample of
// inputs. The controller calls Assign and Observe under the model
// group's lock, so the fields need no lock of their own; the benchmark
// reads them only after the controller is closed.
type assignTracer struct {
	model models.Model
	inner sim.Distributor
	obs   sim.Observer

	spans       []assignSpan
	rowsOffered int64
	assigned    int64
	gpuAssigned int64

	inputs       []assignInput
	inputRows    int
	stride, seen int
}

var _ sim.Distributor = (*assignTracer)(nil)

func newAssignTracer(model models.Model, inner sim.Distributor) *assignTracer {
	t := &assignTracer{model: model, inner: inner, stride: 1}
	t.obs, _ = inner.(sim.Observer)
	return t
}

func (t *assignTracer) Name() string { return t.inner.Name() }

// Observe passes ground-truth service feedback through to the policy.
func (t *assignTracer) Observe(instance string, batch int, serviceMS float64) {
	if t.obs != nil {
		t.obs.Observe(instance, batch, serviceMS)
	}
}

func (t *assignTracer) Assign(nowMS float64, waiting []sim.QueryView, instances []sim.InstanceView) []sim.Assignment {
	t.record(nowMS, waiting, instances)
	start := sinceEpoch()
	out := t.inner.Assign(nowMS, waiting, instances)
	end := sinceEpoch()
	t.spans = append(t.spans, assignSpan{
		startNS: start, endNS: end,
		rows: int32(len(waiting)), cols: int32(len(instances)), assigned: int32(len(out)),
	})
	t.rowsOffered += int64(len(waiting))
	t.assigned += int64(len(out))
	for _, a := range out {
		if a.Instance >= 0 && a.Instance < len(instances) && instances[a.Instance].TypeName == benchPool.Base().Name {
			t.gpuAssigned++
		}
	}
	return out
}

// record keeps every stride-th input; when either cap is hit it drops
// every other kept input and doubles the stride, so the sample stays
// spread over the whole run instead of covering only its start.
func (t *assignTracer) record(nowMS float64, waiting []sim.QueryView, instances []sim.InstanceView) {
	t.seen++
	if t.seen%t.stride != 0 {
		return
	}
	in := assignInput{
		nowMS:     nowMS,
		waiting:   append([]sim.QueryView(nil), waiting...),
		instances: append([]sim.InstanceView(nil), instances...),
	}
	for i := range in.instances {
		in.instances[i].QueuedBatches = append([]int(nil), in.instances[i].QueuedBatches...)
	}
	t.inputs = append(t.inputs, in)
	t.inputRows += len(waiting)
	for len(t.inputs) >= maxRecordedInputs || t.inputRows > maxRecordedRows {
		kept := t.inputs[:0]
		t.inputRows = 0
		for i, in := range t.inputs {
			if i%2 == 1 {
				kept = append(kept, in)
				t.inputRows += len(in.waiting)
			}
		}
		for i := len(kept); i < len(t.inputs); i++ {
			t.inputs[i] = assignInput{}
		}
		t.inputs = kept
		t.stride *= 2
	}
}

// assignStats summarises the decorators of one run.
type assignStats struct {
	calls                int
	usMean, usP99        float64
	rowsP50, rowsP99     float64
	colsP50, colsP99     float64
	busyNS               int64
	rowsOffered          int64
	assigned             int64
	gpuAssigned          int64
	allocsPerCall        float64
	bytesPerCall         float64
	solveP50US, solveP99 float64
	solveAllocs          float64
}

// summarizeAssign folds the tracers and runs the two isolated replays: the
// recorded inputs through a fresh policy, allocation-counted, and the
// solver alone on seeded matrices of the shapes the rounds had.
func summarizeAssign(tracers []*assignTracer, seed int64) (assignStats, error) {
	var s assignStats
	var us, rows, cols []float64
	for _, t := range tracers {
		for _, sp := range t.spans {
			us = append(us, float64(sp.endNS-sp.startNS)/1e3)
			rows = append(rows, float64(sp.rows))
			cols = append(cols, float64(sp.cols))
			s.busyNS += sp.endNS - sp.startNS
		}
		s.rowsOffered += t.rowsOffered
		s.assigned += t.assigned
		s.gpuAssigned += t.gpuAssigned
	}
	s.calls = len(us)
	if s.calls == 0 {
		return s, nil
	}
	sort.Float64s(us)
	sort.Float64s(rows)
	sort.Float64s(cols)
	s.usMean = mean(us)
	s.usP99, _ = tailAt(us, 0.99)
	s.rowsP50, s.rowsP99 = quantile(rows, 0.5), quantile(rows, 0.99)
	s.colsP50, s.colsP99 = quantile(cols, 0.5), quantile(cols, 0.99)

	var replayed int
	var mallocs, bytes uint64
	for _, t := range tracers {
		if len(t.inputs) == 0 {
			continue
		}
		policy, err := kairos.NewPolicy(policyName, kairos.PolicyContext{Pool: benchPool, Model: t.model})
		if err != nil {
			return s, err
		}
		policy.Assign(t.inputs[0].nowMS, t.inputs[0].waiting, t.inputs[0].instances) // warm lazy state
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, in := range t.inputs {
			policy.Assign(in.nowMS, in.waiting, in.instances)
		}
		runtime.ReadMemStats(&after)
		replayed += len(t.inputs)
		mallocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
	}
	if replayed > 0 {
		s.allocsPerCall = float64(mallocs) / float64(replayed)
		s.bytesPerCall = float64(bytes) / float64(replayed)
	}
	s.solveP50US, s.solveAllocs = timeSolve(int(s.rowsP50), int(s.colsP50), seed)
	s.solveP99, _ = timeSolve(int(s.rowsP99), int(s.colsP99), seed)
	return s, nil
}

// timeSolve times assignment.Solve alone on seeded uniform matrices of
// the given shape, returning µs and allocations per solve.
func timeSolve(rows, cols int, seed int64) (us, allocs float64) {
	if rows < 1 || cols < 1 {
		return 0, 0
	}
	rng := rand.New(rand.NewSource(seed))
	const variants = 8
	ms := make([]assignment.Matrix, variants)
	for v := range ms {
		ms[v] = assignment.NewMatrix(rows, cols)
		for i := range ms[v].Data {
			ms[v].Data[i] = rng.Float64() * 100
		}
	}
	// Enough repetitions for ~20 ms of solving, at least 16.
	reps := 16
	t0 := time.Now()
	assignment.Solve(ms[0])
	if one := time.Since(t0); one > 0 {
		reps = max(reps, min(20000, int(20*time.Millisecond/one)))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		if _, _, _, err := assignment.Solve(ms[r%variants]); err != nil {
			return 0, 0
		}
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&after)
	return float64(el.Nanoseconds()) / 1e3 / float64(reps), float64(after.Mallocs-before.Mallocs) / float64(reps)
}

// codecNSPerQuery times the four wire-codec calls one query costs the
// front door's binary path, in isolation.
func codecNSPerQuery() float64 {
	const n = 200_000
	req := server.Request{ID: 123456789, Model: "MT-WND", Batch: 64}
	rep := server.Reply{ID: 123456789, ServiceMS: 11.348}
	var buf []byte
	sink := int64(0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		buf, _ = server.AppendRequestFrame(buf[:0], req)
		rv, err := server.DecodeRequestView(buf[4:])
		if err != nil {
			return 0
		}
		buf, _ = server.AppendReplyFrame(buf[:0], rep)
		out, err := server.DecodeReplyFrame(buf[4:])
		if err != nil {
			return 0
		}
		sink += rv.ID + out.ID
	}
	el := time.Since(t0)
	if sink == 0 {
		return 0
	}
	return float64(el.Nanoseconds()) / n
}

// histRecordNS times one flight-recorder histogram observation.
func histRecordNS() float64 {
	const n = 1_000_000
	var h obs.Histogram
	t0 := time.Now()
	for i := 0; i < n; i++ {
		h.Record(time.Duration(1000 + i*37))
	}
	el := time.Since(t0)
	if h.Snapshot().Count != n {
		return 0
	}
	return float64(el.Nanoseconds()) / n
}

// stageMeans reads the exact per-stage means (µs) from the controller's
// public histogram sums, folded over models.
func stageMeansUS(ctrl *server.Controller) map[obs.Stage]float64 {
	out := make(map[obs.Stage]float64, obs.NumStages)
	for _, st := range obs.Stages() {
		var sum int64
		var n uint64
		for _, m := range ctrl.Models() {
			snap := ctrl.Obs().Model(m).StageSnapshot(st)
			sum += snap.SumNS
			n += snap.Count
		}
		if n > 0 {
			out[st] = float64(sum) / float64(n) / 1e3
		}
	}
	return out
}

// spanWriter streams the in-memory spans to a JSON-lines file when the
// run ends.
type spanWriter struct {
	f   *os.File
	w   *bufio.Writer
	buf []byte
	n   int
}

func newSpanWriter(path string) (*spanWriter, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &spanWriter{f: f, w: bufio.NewWriterSize(f, 1<<20)}, nil
}

func (s *spanWriter) close() error {
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

func (s *spanWriter) kv(key string, v int64) {
	s.buf = append(s.buf, ',', '"')
	s.buf = append(s.buf, key...)
	s.buf = append(s.buf, '"', ':')
	s.buf = strconv.AppendInt(s.buf, v, 10)
}

func (s *spanWriter) ks(key, v string) {
	s.buf = append(s.buf, ',', '"')
	s.buf = append(s.buf, key...)
	s.buf = append(s.buf, '"', ':')
	s.buf = strconv.AppendQuote(s.buf, v)
}

func (s *spanWriter) begin(name string) {
	s.buf = append(s.buf[:0], `{"span":`...)
	s.buf = strconv.AppendQuote(s.buf, name)
}

func (s *spanWriter) end() error {
	s.buf = append(s.buf, '}', '\n')
	s.n++
	_, err := s.w.Write(s.buf)
	return err
}

// query writes the client.rtt span of one query and its server.e2e
// child: the controller's own latency from the reply, ending at receipt.
func (s *spanWriter) query(id int64, model string, batch int, dueNS, sentNS, doneNS int64, e2eNS int64, instance string, ok bool) error {
	s.begin("client.rtt")
	s.kv("id", id)
	s.ks("model", model)
	s.kv("batch", int64(batch))
	s.kv("due_ns", dueNS)
	s.kv("start_ns", sentNS)
	s.kv("end_ns", doneNS)
	if instance != "" {
		s.ks("instance", instance)
	}
	s.buf = append(s.buf, `,"ok":`...)
	s.buf = strconv.AppendBool(s.buf, ok)
	if err := s.end(); err != nil {
		return err
	}
	if doneNS == 0 {
		return nil
	}
	s.begin("server.e2e")
	s.kv("parent", id)
	s.kv("start_ns", doneNS-e2eNS)
	s.kv("end_ns", doneNS)
	return s.end()
}

func (s *spanWriter) assigns(tracers []*assignTracer) error {
	for _, t := range tracers {
		for _, sp := range t.spans {
			s.begin("core.assign")
			s.ks("model", t.model.Name)
			s.kv("start_ns", sp.startNS)
			s.kv("end_ns", sp.endNS)
			s.kv("rows", int64(sp.rows))
			s.kv("cols", int64(sp.cols))
			s.kv("assigned", int64(sp.assigned))
			if err := s.end(); err != nil {
				return err
			}
		}
	}
	return nil
}
