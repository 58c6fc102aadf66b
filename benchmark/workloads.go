package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"kairos"
	"kairos/internal/cloud"
	"kairos/internal/models"
	"kairos/internal/obs"
	"kairos/internal/workload"
)

// runOpts is one run's command line.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	conns    int // client connections: GOMAXPROCS, never more
	traceOut string
}

// result is one run of one workload.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	// Metrics holds every end-to-end metric (untraced) or every per-layer
	// metric (traced), by the names BENCHMARK.json lists.
	Metrics map[string]metric `json:"metrics"`
	// Extra holds what is measured but not part of the contract: the
	// issue's workload-specific metrics that could not be bounded, sample
	// counts, the percentile actually quoted.
	Extra     map[string]metric `json:"extra,omitempty"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Correct   bool              `json:"correct"`
	Problems  []string          `json:"problems,omitempty"`
	Rungs     []rungRecord      `json:"rungs,omitempty"`
	Ledger    ledger            `json:"ledger"`
	// WindowQPS is a closed loop's completions in each one-second window.
	WindowQPS []float64 `json:"window_qps,omitempty"`
	SpanFile  string    `json:"span_file,omitempty"`
	Spans     int       `json:"spans,omitempty"`
}

// rungRecord is one fixed-rate step of an open loop in the run record.
type rungRecord struct {
	RateQPS        float64 `json:"rate_qps"`
	CPUUSPerQuery  float64 `json:"cpu_us_per_query"`
	AllocsPerQuery float64 `json:"allocs_per_query"`
	openStats
}

func newRungRecord(rate float64, s openStats, cost procDelta) rungRecord {
	n := int64(s.Succeeded)
	return rungRecord{RateQPS: rate, CPUUSPerQuery: cost.cpuUSPerQuery(n), AllocsPerQuery: cost.allocsPerQuery(n), openStats: s}
}

// workloadDef names a workload and says why it exists; the names and
// reasons match BENCHMARK.json.
type workloadDef struct {
	name, why string
	run       func(runOpts) (*result, error)
}

var workloads = []workloadDef{
	{"knee-tcp", "open loop at real time on a 32-instance fleet, ladder of fixed rates: throughput at QoS per dollar; dispatch quality does the work, plumbing almost none", runKnee},
	{"sat-tcp", "closed loop with service time ~0 over binary TCP: all time is the system's own parse/admit/round/codec/reply overhead; dispatch quality shows nothing", func(o runOpts) (*result, error) { return runSat(o, false) }},
	{"sat-http", "same load over raw HTTP/1.1 keep-alive with session and deadline: the hand-rolled HTTP scanner, JSON codec, affinity ring and deadline sweep instead of the binary frame", func(o runOpts) (*result, error) { return runSat(o, true) }},
	{"burst-deep", "flash crowd past capacity on a 16-instance fleet: the only workload whose central queue goes ~1000 deep, so the O(queue) round, Eq. 8 matrix and JV do the work", runBurst},
}

// An untraced run prepares itself at least setupReps times, and goes on
// (up to setupMaxReps) until the preparations have taken setupBudget.
// setup_s is their fast decile, not their median: a preparation is a few
// milliseconds of goroutine hand-offs, and a busy neighbour on the host
// only ever delays those. With two of them the median of ~120 set-ups of
// the 32-instance fleet read 13.6–16.9 ms against 10.3–11.7 ms alone,
// the fast decile 8.8–10.9 against 8.7–9.9.
const (
	setupReps     = 25
	setupMaxReps  = 400
	setupBudget   = 1500 * time.Millisecond
	setupQuantile = 0.1
)

type clients struct {
	tcp  []*tcpClient
	http []*httpClient
}

func (c *clients) close() {
	for _, t := range c.tcp {
		t.close()
	}
	for _, h := range c.http {
		h.close()
	}
}

// setUp prepares a run — gen makes the inputs from the seed, then the
// stack boots and the client connections dial — reps times or more (see
// setupReps; a single preparation when reps is 1), tearing all but the
// last preparation down again. It returns the last one and the time a
// preparation took (the setupQuantile of them).
func setUp(spec stackSpec, traced bool, o runOpts, reps int, gen func()) (*stack, *clients, float64, error) {
	var took []float64
	total := 0.0
	for r := 0; ; r++ {
		t0 := time.Now()
		gen()
		st, err := boot(spec, traced, o.seed)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("booting the stack: %w", err)
		}
		cl := &clients{}
		for j := 0; j < o.conns && err == nil; j++ {
			if spec.http {
				var h *httpClient
				if h, err = dialHTTP(st.ing.HTTPAddr()); err == nil {
					cl.http = append(cl.http, h)
				}
			} else {
				var t *tcpClient
				if t, err = dialTCP(st.ing.TCPAddr()); err == nil {
					cl.tcp = append(cl.tcp, t)
				}
			}
		}
		if err != nil {
			cl.close()
			st.close()
			return nil, nil, 0, fmt.Errorf("dialing the ingress: %w", err)
		}
		took = append(took, time.Since(t0).Seconds())
		total += took[r]
		if r+1 >= reps && (reps == 1 || total >= setupBudget.Seconds() || r+1 >= setupMaxReps) {
			return st, cl, quantile(sortedCopy(took), setupQuantile), nil
		}
		cl.close()
		st.close()
	}
}

// The 32-instance fleet of the open-loop workloads: $7.784/hr.
var (
	mtwnd     = models.MustByName("MT-WND")
	bigFleet  = stackSpec{scale: 1, fleets: []fleetSpec{{model: mtwnd, gpus: 8, cpus: 24}}}
	kneeRates = []float64{2000, 2200, 2400, 2600}
)

const (
	kneeRefRate = 2000.0
	// sloFactor puts the knee's latency limit at 1.05 × QoS: the
	// distributor schedules to 0.98 × QoS, so p99 sits within 2% of QoS
	// from 1800 to 2200 qps and a limit at QoS itself is a coin flip.
	sloFactor = 1.05
)

// poisson draws one fixed-rate open-loop phase for a single model.
func poisson(rng *rand.Rand, rate float64, dur time.Duration) []query {
	arr := workload.PoissonStream(rng, workload.DefaultTrace(), rate, float64(dur)/float64(time.Millisecond))
	return toQueries(arr)
}

func toQueries(arr []workload.Arrival) []query {
	qs := make([]query, len(arr))
	for i, a := range arr {
		qs[i] = query{dueNS: int64(a.AtMS * 1e6), batch: int32(a.Batch)}
	}
	return qs
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// openRun carries the pieces the open-loop workloads share.
type openRun struct {
	st      *stack
	cl      *clients
	names   []string
	fails   failures
	nextID  int64
	sent    int64
	depth   []int
	goPeak  int
	pollCtl bool // poll the controller's queue depth on every tick
}

// phase runs one open-loop phase; extra, when set, runs on the sampler's
// tick as well.
func (r *openRun) phase(qs []query, extra func(nowNS int64)) (*openPhase, error) {
	poll := extra
	if r.pollCtl {
		poll = func(nowNS int64) {
			r.depth = append(r.depth, r.st.ctrl.Stats().Waiting)
			r.goPeak = max(r.goPeak, runtime.NumGoroutine())
			if extra != nil {
				extra(nowNS)
			}
		}
	}
	ph, err := runOpen(r.cl.tcp, r.names, qs, r.nextID, &r.fails, poll)
	r.nextID += int64(len(qs))
	r.sent += int64(len(qs))
	return ph, err
}

// finishResult audits the counters once the client has its last reply
// and fills the result's verdict.
func finishResult(res *result, st *stack, sent int64, fails *failures) {
	l, err := st.audit(sent)
	res.Ledger = l
	res.Attempted += sent
	res.Failed += fails.count()
	res.Problems = append(res.Problems, fails.first...)
	if err != nil {
		res.Problems = append(res.Problems, "ledger: "+err.Error())
	}
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
}

// extra records a number outside the contract.
func (r *result) extra(name string, v float64, unit string) {
	r.Extra[name] = metric{Value: v, Unit: unit}
}

func newResult(o runOpts) *result {
	return &result{Workload: o.workload, Seed: o.seed, Traced: o.traced, Extra: map[string]metric{}, Correct: true}
}

// upperBoundQPS asks the paper's estimator (Sec. 5.2) for the fleet's
// throughput ceiling under the batch mix the run actually sent.
func upperBoundQPS(f fleetSpec, batches []int) (float64, error) {
	eng, err := kairos.New(kairos.WithPool(benchPool), kairos.WithModel(f.model), kairos.WithBatchSamples(batches))
	if err != nil {
		return 0, err
	}
	return eng.UpperBound(cloud.Config{f.gpus, f.cpus})
}

func batchesOf(qs []query) []int {
	out := make([]int, len(qs))
	for i, q := range qs {
		out[i] = int(q.batch)
	}
	return out
}

// writeOpenSpans writes a traced open-loop phase's query spans and the
// run's assign spans.
func writeOpenSpans(path string, ph *openPhase, names []string, idBase int64, tracers []*assignTracer, scale float64) (int, error) {
	w, err := newSpanWriter(path)
	if err != nil {
		return 0, err
	}
	for i, q := range ph.queries {
		var done int64
		if ph.done[i] != 0 {
			done = ph.startNS + ph.done[i]
		}
		e2e := int64(ph.svcMS[i] * scale * 1e6)
		if err := w.query(idBase+int64(i), names[q.model], int(q.batch),
			ph.startNS+q.dueNS, ph.startNS+ph.sent[i], done, e2e, "", ph.ok[i]); err != nil {
			w.close()
			return w.n, err
		}
	}
	if err := w.assigns(tracers); err != nil {
		w.close()
		return w.n, err
	}
	return w.n, w.close()
}

// ---- knee-tcp ----

func runKnee(o runOpts) (*result, error) {
	if o.traced {
		return runOpenTraced(o, false)
	}
	res := newResult(o)
	// Half of the run holds the reference rate — every end-to-end metric
	// is read there, over as many one-second windows as the run affords —
	// and the other rungs of the ladder share the rest.
	warm := warmFor(o.seconds)
	refDur := secs(o.seconds * 0.52)
	rungDur := (secs(o.seconds) - warm - refDur - secs(0.5)) / time.Duration(len(kneeRates)-1)
	rungDur = max(rungDur, 100*time.Millisecond)
	var warmQ []query
	var rungs [][]query
	gen := func() {
		rng := rand.New(rand.NewSource(o.seed))
		warmQ = poisson(rng, kneeRefRate, warm)
		rungs = rungs[:0]
		for _, rate := range kneeRates {
			dur := rungDur
			if rate == kneeRefRate {
				dur = refDur
			}
			rungs = append(rungs, poisson(rng, rate, dur))
		}
	}
	st, cl, setupS, err := setUp(bigFleet, false, o, setupReps, gen)
	if err != nil {
		return nil, err
	}
	defer st.close()
	defer cl.close()
	r := &openRun{st: st, cl: cl, names: []string{mtwnd.Name}}
	if _, err := r.phase(warmQ, nil); err != nil {
		return nil, err
	}
	limit := sloFactor * mtwnd.QoS
	var ladder []rung
	var ref openStats
	var refCost procDelta
	for k, rate := range kneeRates {
		before := snapProc()
		ph, err := r.phase(rungs[k], nil)
		if err != nil {
			return nil, err
		}
		cost := before.until(snapProc())
		s := analyzeOpen(ph, mtwnd.QoS, limit, bigFleet.scale)
		res.Rungs = append(res.Rungs, newRungRecord(rate, s, cost))
		ladder = append(ladder, rung{RateQPS: rate, TailMS: s.SteadyTailMS, Grew: s.Grew, Disturbed: s.Disturbed})
		if rate == kneeRefRate {
			ref, refCost = s, cost
		}
	}
	finishResult(res, st, r.sent, &r.fails)

	m := newMetricSet(endToEnd)
	m.set("setup_s", setupS)
	m.set("qps", ref.SteadyGoodput)
	m.set("qos_attainment", ref.SteadyAttain)
	m.set("allocs_per_query", refCost.allocsPerQuery(int64(ref.Succeeded)))
	res.Metrics = m.vals
	knee, bracketed := kneeQPS(ladder, limit)
	price := bigFleet.usdPerHour()
	res.extra("qps_at_slo", knee, "1/s")
	if bracketed {
		res.extra("qps_at_slo_bracketed", 1, "bool")
	} else {
		res.extra("qps_at_slo_bracketed", 0, "bool")
	}
	res.extra("usd_per_mquery", price/(knee*3600)*1e6, "usd")
	res.extra("usd_per_mquery_within_qos_at_ref", price/(ref.SteadyGoodput*3600)*1e6, "usd")
	res.extra("p50_ms", ref.SteadyP50MS, "ms")
	res.extra("p99_ms", ref.SteadyTailMS, "ms")
	res.extra("cpu_us_per_query", refCost.cpuUSPerQuery(int64(ref.Succeeded)), "us")
	res.extra("slo_limit_ms", limit, "ms")
	res.extra("ref_rate_qps", kneeRefRate, "1/s")
	res.extra("ref_n", float64(ref.Sent), "count")
	res.extra("ref_windows", float64(ref.Windows), "count")
	res.extra("ref_tail_pct", ref.TailPct*100, "%")
	if ub, err := upperBoundQPS(bigFleet.fleets[0], batchesOf(rungs[0])); err == nil && ub > 0 {
		res.extra("upper_bound_qps", ub, "1/s")
		res.extra("bound_gap_at_slo", knee/ub, "share")
	}
	return res, nil
}

// warmFor is the unmeasured lead-in of a run of the given length.
func warmFor(seconds float64) time.Duration { return secs(min(0.5, seconds/10)) }

// runOpenTraced is the traced pass of an open-loop workload: a short
// untraced reference pass at a fixed rate (its CPU per query is the base
// of trace.overhead_share), then a fresh traced boot running knee-tcp's
// reference rate for a few seconds or, with burst set, burst-deep's whole
// flash crowd, whose drain is then timed.
func runOpenTraced(o runOpts, burst bool) (*result, error) {
	res := newResult(o)
	names := []string{mtwnd.Name}
	rng := rand.New(rand.NewSource(o.seed))
	fleet, warmQPS := bigFleet, kneeRefRate
	if burst {
		fleet, warmQPS = burstFleet, burstBaseQPS
	}
	warm := poisson(rng, warmQPS, warmFor(o.seconds))
	var refQ, qs []query
	if burst {
		refQ = poisson(rng, burstBaseQPS, secs(min(3, o.seconds/8)))
		qs = burstSchedule(o.seed, o.seconds)
	} else {
		refQ = poisson(rng, kneeRefRate, secs(min(3, o.seconds/4)))
		qs = poisson(rng, kneeRefRate, secs(min(8, o.seconds/2)))
	}

	// Reference pass, tracing off.
	st, cl, _, err := setUp(fleet, false, o, 1, func() {})
	if err != nil {
		return nil, err
	}
	ref := &openRun{st: st, cl: cl, names: names}
	var refCPU float64
	if _, err = ref.phase(warm, nil); err == nil {
		before := snapProc()
		var ph *openPhase
		if ph, err = ref.phase(refQ, nil); err == nil {
			s := analyzeOpen(ph, mtwnd.QoS, sloFactor*mtwnd.QoS, fleet.scale)
			refCPU = before.until(snapProc()).cpuUSPerQuery(int64(s.Succeeded))
		}
	}
	finishResult(res, st, ref.sent, &ref.fails)
	cl.close()
	st.close()
	if err != nil {
		return nil, err
	}

	// Traced pass.
	st, cl, _, err = setUp(fleet, true, o, 1, func() {})
	if err != nil {
		return nil, err
	}
	defer st.close()
	defer cl.close()
	r := &openRun{st: st, cl: cl, names: names, pollCtl: true, nextID: ref.nextID}
	if _, err := r.phase(warm, nil); err != nil {
		return nil, err
	}
	r.depth = r.depth[:0]
	idBase := r.nextID
	before := snapProc()
	var drain drainTimer
	var extra func(int64)
	var baseCPUNS int64 // CPU the flash crowd's first base-rate phase took
	if burst {
		drain = newDrainTimer(qs)
		extra = func(nowNS int64) {
			drain.observe(nowNS, r.depth[len(r.depth)-1])
			if baseCPUNS == 0 && nowNS >= drain.baseEndNS {
				u, s, _ := cpuTimes()
				baseCPUNS = u + s - before.userNS - before.sysNS
			}
		}
	}
	ph, err := r.phase(qs, extra)
	if err != nil {
		return nil, err
	}
	cost := before.until(snapProc())
	s := analyzeOpen(ph, mtwnd.QoS, sloFactor*mtwnd.QoS, fleet.scale)
	// Like is compared with like: the reference pass ran at the flash
	// crowd's base rate, so only its first base-rate phase is held
	// against it.
	tracedCPU := cost.cpuUSPerQuery(int64(s.Succeeded))
	if burst {
		n := sort.Search(len(qs), func(i int) bool { return qs[i].dueNS >= drain.baseEndNS })
		tracedCPU = float64(baseCPUNS) / 1e3 / float64(max(1, n))
	}
	stages := stageMeansUS(st.ctrl)
	rejected, rateLimited := st.refusals()
	finishResult(res, st, r.sent, &r.fails)
	// The decorators may only be read once the scheduler goroutines that
	// write them have stopped.
	cl.close()
	st.close()

	src := layerSources{
		stageUS: stages, rejected: rejected, rateLimited: rateLimited,
		rttUS: s.rttUS, selfUS: s.selfUS,
		completed: int64(s.Succeeded), wallNS: ph.wallNS,
		depth: r.depth, proc: cost, goroutinesPeak: r.goPeak,
		p50MS: s.P50MS, p99MS: s.TailMS, p999MS: quantile(s.latMS, 0.999),
		lateP99MS: s.LateP99MS, lateMaxMS: s.LateMaxMS,
		drainS: drain.seconds(),
	}
	if src.assign, err = summarizeAssign(st.tracers, o.seed); err != nil {
		return nil, err
	}
	if src.assign.assigned > 0 {
		src.gpuShare = float64(src.assign.gpuAssigned) / float64(src.assign.assigned)
	}
	if refCPU > 0 {
		src.overhead = (tracedCPU - refCPU) / refCPU
	}
	if ub, err := upperBoundQPS(fleet.fleets[0], batchesOf(qs)); err == nil {
		src.upperBoundQPS = ub
		if !burst && ph.wallNS > 0 {
			src.goodputQPS = s.Attainment * float64(s.Sent) / (float64(ph.wallNS) / 1e9)
		}
	}
	res.Metrics = buildLayerMetrics(src)
	res.extra("traced_n", float64(s.Sent), "count")
	res.extra("ref_cpu_us_per_query", refCPU, "us")
	res.extra("traced_cpu_us_per_query", tracedCPU, "us")
	res.Rungs = []rungRecord{newRungRecord(float64(s.Sent)/(float64(qs[len(qs)-1].dueNS)/1e9), s, cost)}
	res.SpanFile = o.traceOut
	if res.Spans, err = writeOpenSpans(o.traceOut, ph, names, idBase, st.tracers, fleet.scale); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return res, nil
}

// ---- burst-deep ----

// burstFleet is half of knee-tcp's fleet in the same 1:3 mix ($3.892/hr),
// under half of the issue's rates. The full size (1500 → 3600 qps on 32
// instances) takes most of a core of a 2-vCPU box during the spike, and
// the O(queue) round then feeds on itself whenever the host is busy: with
// two busy neighbours the drain stretched from 3.6 s to 16 s and
// attainment fell from 0.65 to 0.35. At half the size the queue still
// goes ~1000 deep and the same neighbours move attainment by 6%.
var burstFleet = stackSpec{scale: 1, fleets: []fleetSpec{{model: mtwnd, gpus: 4, cpus: 12}}}

const (
	burstBaseQPS  = 750.0
	burstSpikeQPS = 1800.0
	// drainedAt is the central-queue depth that counts as drained.
	drainedAt = 4
)

// burstSchedule is the flash crowd: two thirds of the run's seconds
// (20 s of 30), the rest being left for the drain's tail.
func burstSchedule(seed int64, seconds float64) []query {
	durMS := seconds * 1000 * 2 / 3
	return toQueries(workload.FlashCrowd(durMS, burstBaseQPS, burstSpikeQPS, workload.DefaultTrace()).Generate(seed))
}

// drainTimer times the drain: from the end of the spike (65% of the
// flash crowd) until the controller's central queue is back to
// drainedAt or fewer.
type drainTimer struct {
	baseEndNS, holdStartNS, holdEndNS, spikeEndNS int64
	drainedNS                                     int64
}

func newDrainTimer(qs []query) drainTimer {
	if len(qs) == 0 {
		return drainTimer{}
	}
	// The schedule's length is its last due time, to within one gap.
	dur := float64(qs[len(qs)-1].dueNS)
	return drainTimer{baseEndNS: int64(0.35 * dur), holdStartNS: int64(0.40 * dur), holdEndNS: int64(0.60 * dur), spikeEndNS: int64(0.65 * dur)}
}

func (d *drainTimer) observe(nowNS int64, waiting int) {
	if d.drainedNS == 0 && nowNS >= d.spikeEndNS && waiting <= drainedAt {
		d.drainedNS = nowNS
	}
}

func (d *drainTimer) seconds() float64 {
	if d.drainedNS == 0 {
		return 0
	}
	return float64(d.drainedNS-d.spikeEndNS) / 1e9
}

func runBurst(o runOpts) (*result, error) {
	if o.traced {
		return runOpenTraced(o, true)
	}
	res := newResult(o)
	var warm, qs []query
	gen := func() {
		warm = poisson(rand.New(rand.NewSource(o.seed)), burstBaseQPS, warmFor(o.seconds))
		qs = burstSchedule(o.seed, o.seconds)
	}
	st, cl, setupS, err := setUp(burstFleet, false, o, setupReps, gen)
	if err != nil {
		return nil, err
	}
	defer st.close()
	defer cl.close()
	r := &openRun{st: st, cl: cl, names: []string{mtwnd.Name}}
	if _, err := r.phase(warm, nil); err != nil {
		return nil, err
	}
	drain := newDrainTimer(qs)
	tick := 0
	before := snapProc()
	ph, err := r.phase(qs, func(nowNS int64) {
		// Stats takes the group lock and allocates, so the untraced run
		// asks only once the spike is over, and then every fourth tick.
		if tick++; nowNS >= drain.spikeEndNS && drain.drainedNS == 0 && tick%4 == 0 {
			drain.observe(nowNS, st.ctrl.Stats().Waiting)
		}
	})
	if err != nil {
		return nil, err
	}
	cost := before.until(snapProc())
	s := analyzeOpen(ph, mtwnd.QoS, sloFactor*mtwnd.QoS, burstFleet.scale)
	finishResult(res, st, r.sent, &r.fails)

	// Throughput while the spike holds: offered load is past capacity and
	// the queue only deepens, so completions per second are what the
	// system can clear with a deep queue — the rate the drain runs at.
	held := 0
	for i := range ph.queries {
		if ph.ok[i] && ph.done[i] >= drain.holdStartNS && ph.done[i] < drain.holdEndNS {
			held++
		}
	}
	deepQPS := float64(held) / (float64(drain.holdEndNS-drain.holdStartNS) / 1e9)

	m := newMetricSet(endToEnd)
	m.set("setup_s", setupS)
	m.set("qps", deepQPS)
	m.set("qos_attainment", s.Attainment)
	m.set("allocs_per_query", cost.allocsPerQuery(int64(s.Succeeded)))
	res.Metrics = m.vals
	res.extra("drain_s", drain.seconds(), "s")
	res.extra("p50_ms", s.P50MS, "ms")
	res.extra("p99_ms", s.TailMS, "ms")
	res.extra("cpu_us_per_query", cost.cpuUSPerQuery(int64(s.Succeeded)), "us")
	res.extra("n", float64(s.Sent), "count")
	res.extra("tail_pct", s.TailPct*100, "%")
	res.extra("gen_late_ms_max", s.LateMaxMS, "ms")
	res.Rungs = []rungRecord{newRungRecord(float64(s.Sent)/(o.seconds*2/3), s, cost)}
	return res, nil
}

// ---- sat-tcp, sat-http ----

const (
	satBatch      = 8
	satWindow     = 4   // pipelined requests per TCP connection
	satDeadlineMS = 500 // carried by every sat-http request
	satScale      = 1e-6
)

// satFleet is server.StartBenchCluster's shape, under kairos+warm.
var satFleet = []fleetSpec{
	{model: models.MustByName("NCF"), gpus: 1, cpus: 1},
	{model: mtwnd, gpus: 1, cpus: 1},
}

func satSpec(http bool) stackSpec {
	return stackSpec{scale: satScale, fleets: satFleet, http: http}
}

// satPass is one closed-loop pass over its own stack, which is closed
// again by the time the pass returns.
type satPass struct {
	run         *closedRun
	stats       closedStats
	cost        procDelta
	setupS      float64
	stages      map[obs.Stage]float64
	rejected    int64
	rateLimited int64
	depth       []int
	goPeak      int
	tracers     []*assignTracer
}

// runSatPass boots the stack, drives the closed loop for run (after the
// warm-up), audits the counters into res and tears the stack down.
func runSatPass(o runOpts, res *result, http, traced bool, reps int, run time.Duration) (*satPass, error) {
	spec := satSpec(http)
	plan := closedPlan{names: spec.modelNames(), batch: satBatch, warm: warmFor(o.seconds), run: run, traced: traced, deadlineMS: satDeadlineMS}
	for _, n := range plan.names {
		// QoS is a figure in milliseconds and the client keeps wall time:
		// a reply within the model's QoS on the client's clock attains it.
		plan.qosNS = append(plan.qosNS, int64(models.MustByName(n).QoS*1e6))
	}
	gen := func() {
		rng := rand.New(rand.NewSource(o.seed))
		plan.picks = make([]uint8, 4096)
		for i := range plan.picks {
			plan.picks[i] = uint8(rng.Intn(len(plan.names)))
		}
	}
	st, cl, setupS, err := setUp(spec, traced, o, reps, gen)
	if err != nil {
		return nil, err
	}
	defer st.close()
	defer cl.close()
	p := &satPass{setupS: setupS, tracers: st.tracers}
	plan.start = time.Now()

	// The window's costs are read at its edges by a goroutine of their
	// own; a traced pass also polls the central queue on the way.
	type edge struct{ a, b procSnap }
	edges := make(chan edge, 1)
	go func() {
		time.Sleep(time.Until(plan.start.Add(plan.warm)))
		a := snapProc()
		end := plan.start.Add(plan.warm + plan.run)
		if traced {
			tick := time.NewTicker(sampleEvery)
			for time.Now().Before(end) {
				<-tick.C
				p.depth = append(p.depth, st.ctrl.Stats().Waiting)
				p.goPeak = max(p.goPeak, runtime.NumGoroutine())
			}
			tick.Stop()
		}
		time.Sleep(time.Until(end))
		edges <- edge{a, snapProc()}
	}()
	var fails failures
	p.run, err = runClosed(o.conns, plan, func(j int, out *closedConn) error {
		if http {
			return closedHTTPConn(cl.http[j], j, plan, out, &fails)
		}
		return closedTCPConn(cl.tcp[j], j, plan, satWindow, out, &fails)
	})
	e := <-edges
	if err != nil {
		return nil, err
	}
	p.cost = e.a.until(e.b)
	finishResult(res, st, p.run.sent, &fails)
	p.stages = stageMeansUS(st.ctrl)
	p.rejected, p.rateLimited = st.refusals()

	p.stats = analyzeClosed(p.run, run)
	return p, nil
}

func runSat(o runOpts, http bool) (*result, error) {
	res := newResult(o)
	if !o.traced {
		p, err := runSatPass(o, res, http, false, setupReps, secs(o.seconds)-warmFor(o.seconds))
		if err != nil {
			return nil, err
		}
		m := newMetricSet(endToEnd)
		m.set("setup_s", p.setupS)
		m.set("qps", p.stats.FastQPS)
		m.set("qos_attainment", float64(p.run.within)/float64(max(1, p.stats.Completed+res.Failed)))
		m.set("allocs_per_query", p.cost.allocsPerQuery(p.stats.Completed))
		res.Metrics = m.vals
		res.WindowQPS = p.stats.WindowQPS
		res.extra("sat_qps", p.stats.FastQPS, "1/s")
		res.extra("sat_qps_median_window", p.stats.SteadyQPS, "1/s")
		res.extra("sat_qps_whole_run", p.stats.QPS, "1/s")
		res.extra("p50_us", p.stats.SteadyP50US, "us")
		res.extra("p99_us", p.stats.SteadyP99US, "us")
		res.extra("p99_us_whole_run", p.stats.P99US, "us")
		res.extra("cpu_us_per_query", p.cost.cpuUSPerQuery(p.stats.Completed), "us")
		res.extra("n", float64(p.stats.Completed), "count")
		res.extra("windows", float64(p.stats.Windows), "count")
		return res, nil
	}

	// Traced: an untraced reference pass, then the traced pass over a
	// fresh stack; the throughput lost between them is the overhead.
	tracedFor := secs(min(5, o.seconds/3))
	ref, err := runSatPass(o, res, http, false, 1, tracedFor)
	if err != nil {
		return nil, err
	}
	p, err := runSatPass(o, res, http, true, 1, tracedFor)
	if err != nil {
		return nil, err
	}
	src := layerSources{
		stageUS: p.stages, rejected: p.rejected, rateLimited: p.rateLimited,
		completed: p.stats.Completed, wallNS: tracedFor.Nanoseconds(),
		depth: p.depth, proc: p.cost, goroutinesPeak: p.goPeak,
		p50MS: p.stats.SteadyP50US / 1e3, p99US: p.stats.P99US, expired: p.run.expired,
	}
	for _, sp := range p.run.spans {
		rtt := float64(sp.doneNS-sp.sentNS) / 1e3
		src.rttUS = append(src.rttUS, rtt)
		src.selfUS = append(src.selfUS, rtt-float64(sp.svcMS)*satScale*1e3)
	}
	sort.Float64s(src.rttUS)
	sort.Float64s(src.selfUS)
	if src.assign, err = summarizeAssign(p.tracers, o.seed); err != nil {
		return nil, err
	}
	switch {
	case p.run.typed > 0: // HTTP replies name the serving type
		src.affinityShare = float64(p.run.modal) / float64(p.run.typed)
		src.gpuShare = float64(p.run.gpu) / float64(p.run.typed)
	case src.assign.assigned > 0:
		src.gpuShare = float64(src.assign.gpuAssigned) / float64(src.assign.assigned)
	}
	if ref.stats.QPS > 0 {
		src.overhead = (ref.stats.QPS - p.stats.QPS) / ref.stats.QPS
	}
	res.Metrics = buildLayerMetrics(src)
	res.extra("traced_n", float64(p.stats.Completed), "count")
	res.extra("ref_qps", ref.stats.QPS, "1/s")
	res.extra("traced_qps", p.stats.QPS, "1/s")
	res.SpanFile = o.traceOut
	if res.Spans, err = writeClosedSpans(o.traceOut, p.run, satSpec(http).modelNames(), p.tracers); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return res, nil
}

func writeClosedSpans(path string, cr *closedRun, names []string, tracers []*assignTracer) (int, error) {
	w, err := newSpanWriter(path)
	if err != nil {
		return 0, err
	}
	for i, sp := range cr.spans {
		inst := ""
		if sp.instance >= 0 {
			inst = benchPool[sp.instance].Name
		}
		e2e := int64(float64(sp.svcMS) * satScale * 1e6)
		if err := w.query(int64(i), names[sp.model], satBatch, cr.startNS+sp.sentNS, cr.startNS+sp.sentNS, cr.startNS+sp.doneNS, e2e, inst, true); err != nil {
			w.close()
			return w.n, err
		}
	}
	if err := w.assigns(tracers); err != nil {
		w.close()
		return w.n, err
	}
	return w.n, w.close()
}
