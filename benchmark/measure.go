package main

import (
	"math"
	"runtime"
	"sort"
	"time"

	"kairos/internal/obs"
)

// metric is one named number with its unit, as the last output line
// carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names one metric of the ledger.
type metricDef struct{ name, unit string }

// endToEnd lists what a user of the system sees, on every workload. The
// names, units and order match BENCHMARK.json (a test holds them equal).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"qos_attainment", "share"},
	{"allocs_per_query", "count"},
}

// perLayer lists the traced run's metrics; the prefix is the module
// (layer) the number belongs to. A metric a workload cannot take reads 0.
var perLayer = []metricDef{
	{"ingress.self_us_p50", "us"},
	{"ingress.self_us_p99", "us"},
	{"ingress.admit_us_mean", "us"},
	{"ingress.rejected", "count"},
	{"ingress.rate_limited", "count"},
	{"server.queue_us_mean", "us"},
	{"server.queue_depth_max", "count"},
	{"server.queue_depth_mean", "count"},
	{"server.instance_wait_us_mean", "us"},
	{"server.wire_us_mean", "us"},
	{"server.serve_us_mean", "us"},
	{"server.rounds_per_query", "count"},
	{"server.round_yield", "share"},
	{"server.codec_ns_per_query", "ns"},
	{"server.affinity_hit_share", "share"},
	{"server.deadline_expired", "count"},
	{"server.gpu_share", "share"},
	{"core.assign_us_mean", "us"},
	{"core.assign_us_p99", "us"},
	{"core.assign_rows_p50", "count"},
	{"core.assign_rows_p99", "count"},
	{"core.assign_busy_share", "share"},
	{"core.assign_allocs_per_call", "count"},
	{"core.assign_bytes_per_call", "B"},
	{"core.upper_bound_qps", "1/s"},
	{"core.bound_gap", "share"},
	{"assignment.solve_us_p50shape", "us"},
	{"assignment.solve_us_p99shape", "us"},
	{"assignment.solve_allocs", "count"},
	{"obs.record_ns", "ns"},
	{"proc.cpu_us_per_query", "us"},
	{"proc.gc_pause_ms_total", "ms"},
	{"proc.gc_cycles", "count"},
	{"proc.heap_inuse_mb", "MB"},
	{"proc.peak_rss_mb", "MB"},
	{"proc.sys_cpu_share", "share"},
	{"proc.goroutines_peak", "count"},
	{"client.rtt_us_mean", "us"},
	{"client.p50_ms", "ms"},
	{"client.p99_ms", "ms"},
	{"client.p999_ms", "ms"},
	{"client.p99_us", "us"},
	{"client.gen_late_ms_p99", "ms"},
	{"client.gen_late_ms_max", "ms"},
	{"client.drain_s", "s"},
	{"trace.residual_share", "share"},
	{"trace.overhead_share", "share"},
}

// metricSet is a run's metrics keyed by name; set checks the name
// against the table it was built from, so a typo cannot add a metric.
type metricSet struct {
	defs map[string]string
	vals map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: make(map[string]string, len(defs)), vals: make(map[string]metric, len(defs))}
	for _, d := range defs {
		m.defs[d.name] = d.unit
		m.vals[d.name] = metric{Unit: d.unit}
	}
	return m
}

func (m *metricSet) set(name string, v float64) {
	unit, ok := m.defs[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the ledger")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.vals[name] = metric{Value: v, Unit: unit}
}

// procSnap is a point-in-time reading of the process's own costs.
type procSnap struct {
	at        time.Time
	userNS    int64
	sysNS     int64
	maxRSSKB  int64
	mallocs   uint64
	numGC     uint32
	pauseNS   uint64
	heapInuse uint64
}

func snapProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	user, sys, rss := cpuTimes()
	return procSnap{
		at:        time.Now(),
		userNS:    user,
		sysNS:     sys,
		maxRSSKB:  rss,
		mallocs:   ms.Mallocs,
		numGC:     ms.NumGC,
		pauseNS:   ms.PauseTotalNs,
		heapInuse: ms.HeapInuse,
	}
}

// procDelta is what a measured window cost the process.
type procDelta struct {
	wallNS, cpuNS, sysNS int64
	mallocs              uint64
	gcCycles             uint32
	gcPauseNS            uint64
	heapInuse            uint64
	maxRSSKB             int64
}

func (a procSnap) until(b procSnap) procDelta {
	return procDelta{
		wallNS:    b.at.Sub(a.at).Nanoseconds(),
		cpuNS:     (b.userNS + b.sysNS) - (a.userNS + a.sysNS),
		sysNS:     b.sysNS - a.sysNS,
		mallocs:   b.mallocs - a.mallocs,
		gcCycles:  b.numGC - a.numGC,
		gcPauseNS: b.pauseNS - a.pauseNS,
		heapInuse: b.heapInuse,
		maxRSSKB:  b.maxRSSKB,
	}
}

func (d procDelta) cpuUSPerQuery(n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.cpuNS) / 1e3 / float64(n)
}

func (d procDelta) allocsPerQuery(n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.mallocs) / float64(n)
}

// failedLatencyMS is the latency a failed, refused or unanswered query
// is given, so that it misses every limit.
const failedLatencyMS = float64(readDeadline / time.Millisecond)

// lateLimitMS marks a phase disturbed: the generator itself ran this
// late, so the latencies say more about the box than about the system.
const lateLimitMS = 10

// openStats is one open-loop phase reduced to numbers.
type openStats struct {
	Sent       int `json:"sent"`
	Succeeded  int `json:"succeeded"`
	Failed     int `json:"failed"`
	Unanswered int `json:"unanswered"`
	// Late counts queries the generator sent more than 1 ms after they
	// were due.
	Late int `json:"late"`

	latMS []float64 // from the due time, ascending; failures at failedLatencyMS

	// Whole-phase figures.
	P50MS      float64 `json:"p50_ms"`
	TailMS     float64 `json:"tail_ms"`
	TailPct    float64 `json:"tail_pct"`
	Attainment float64 `json:"qos_attainment"`
	// Steady-state figures: the median over the one-second windows of the
	// schedule (by due time), so that one stall of the box — a stolen
	// vCPU, a noisy neighbour — moves one window and not the figure. A
	// phase shorter than two seconds has one window: the whole phase.
	Windows         int     `json:"windows"`
	SteadyP50MS     float64 `json:"steady_p50_ms"`
	SteadyTailMS    float64 `json:"steady_tail_ms"`
	SteadyAttain    float64 `json:"steady_qos_attainment"`
	SteadyWithinSLO float64 `json:"steady_within_slo"`
	// SteadyGoodput is the median window's queries answered within QoS
	// per second.
	SteadyGoodput float64 `json:"steady_goodput_qps"`

	LateP99MS float64 `json:"gen_late_ms_p99"`
	LateMaxMS float64 `json:"gen_late_ms_max"`
	Grew      bool    `json:"inflight_grew"`
	Disturbed bool    `json:"disturbed"`

	rttUS  []float64 // sent → done, answered OK, ascending
	selfUS []float64 // rtt − the controller's echoed latency, ascending
}

// analyzeOpen reduces a phase. Latency runs from the due time, so a
// generator stall is charged to the queries it delayed. scale converts
// the echoed model milliseconds to wall time; sloMS is the latency limit
// the knee is read against.
func analyzeOpen(ph *openPhase, qosMS, sloMS, scale float64) openStats {
	s := openStats{Sent: len(ph.queries)}
	late := make([]float64, 0, s.Sent)
	byDue := make([]float64, s.Sent) // latency in schedule order, for the windows
	within := 0
	for i, q := range ph.queries {
		lateMS := float64(ph.sent[i]-q.dueNS) / 1e6
		late = append(late, lateMS)
		if lateMS > 1 {
			s.Late++
		}
		byDue[i] = failedLatencyMS
		switch {
		case ph.done[i] == 0:
			s.Unanswered++
		case !ph.ok[i]:
			s.Failed++
		default:
			s.Succeeded++
			byDue[i] = float64(ph.done[i]-q.dueNS) / 1e6 / scale
			if byDue[i] <= qosMS {
				within++
			}
			rtt := float64(ph.done[i]-ph.sent[i]) / 1e3
			s.rttUS = append(s.rttUS, rtt)
			s.selfUS = append(s.selfUS, rtt-ph.svcMS[i]*scale*1e3)
		}
	}
	s.latMS = sortedCopy(byDue)
	sort.Float64s(s.rttUS)
	sort.Float64s(s.selfUS)
	sort.Float64s(late)
	s.P50MS = quantile(s.latMS, 0.5)
	s.TailMS, s.TailPct = tailAt(s.latMS, 0.99)
	if s.Sent > 0 {
		s.Attainment = float64(within) / float64(s.Sent)
	}
	s.LateP99MS = quantile(late, 0.99)
	if len(late) > 0 {
		s.LateMaxMS = late[len(late)-1]
	}
	s.Disturbed = s.LateMaxMS > lateLimitMS
	s.Grew = inflightGrew(ph)

	// Whole one-second windows of the schedule, by due time.
	durNS := int64(0)
	if s.Sent > 0 {
		durNS = ph.queries[s.Sent-1].dueNS
	}
	s.Windows = max(1, int(durNS/1e9))
	winNS := durNS / int64(s.Windows)
	if s.Windows > 1 {
		winNS = 1e9
	}
	var p50s, tails, attain, inSLO, goodput []float64
	lo := 0
	for w := 0; w < s.Windows && lo < s.Sent; w++ {
		hi := lo
		for hi < s.Sent && (ph.queries[hi].dueNS < int64(w+1)*winNS || s.Windows == 1) {
			hi++
		}
		win := sortedCopy(byDue[lo:hi])
		lo = hi
		if len(win) == 0 {
			continue
		}
		t, _ := tailAt(win, 0.99)
		p50s = append(p50s, quantile(win, 0.5))
		tails = append(tails, t)
		attain = append(attain, shareAtMost(win, qosMS))
		inSLO = append(inSLO, shareAtMost(win, sloMS))
		if winNS > 0 {
			goodput = append(goodput, shareAtMost(win, qosMS)*float64(len(win))/(float64(winNS)/1e9))
		}
	}
	s.SteadyP50MS, s.SteadyTailMS = median(p50s), median(tails)
	s.SteadyAttain, s.SteadyWithinSLO, s.SteadyGoodput = median(attain), median(inSLO), median(goodput)
	return s
}

// shareAtMost is the share of an ascending slice that is ≤ limit.
func shareAtMost(sorted []float64, limit float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sort.SearchFloat64s(sorted, math.Nextafter(limit, math.Inf(1)))) / float64(len(sorted))
}

// inflightGrew compares the in-flight count over the second and the last
// quarter of the sending window. A rate within capacity holds it level;
// beyond capacity it climbs for as long as the rate is held.
func inflightGrew(ph *openPhase) bool {
	if len(ph.queries) == 0 {
		return false
	}
	sending := int(time.Duration(ph.queries[len(ph.queries)-1].dueNS) / sampleEvery)
	sending = min(sending, len(ph.inflight))
	if sending < 8 {
		return false
	}
	avg := func(v []int32) float64 {
		s := 0.0
		for _, x := range v {
			s += float64(x)
		}
		return s / float64(len(v))
	}
	early := avg(ph.inflight[sending/4 : sending/2])
	last := avg(ph.inflight[3*sending/4 : sending])
	return last > 1.5*early+16
}

// closedStats is a closed loop reduced to numbers. The steady figures
// are medians over the whole one-second windows of the measured time, for
// the reason openStats gives; the others cover the whole measured time.
type closedStats struct {
	Completed int64
	Windows   int
	QPS       float64 // completed / measured time
	// FastQPS is the 90th percentile of the windows' throughputs. A closed
	// loop is CPU-bound, and what interferes with it on a shared box — a
	// stolen vCPU, a busy hyperthread sibling — only ever slows it, for
	// seconds at a time: the run's fast seconds say what the program does,
	// the median second what the neighbours did. Over eight runs in a
	// noisy half hour the median window spread 9.8%, the 90th percentile
	// 3.7%; in a quiet one both 3–4%.
	FastQPS     float64
	SteadyQPS   float64
	SteadyP50US float64
	SteadyP99US float64
	P99US       float64   // whole measured time
	WindowQPS   []float64 // completions in each one-second window
}

func analyzeClosed(run *closedRun, measured time.Duration) closedStats {
	cs := closedStats{Completed: run.completed, QPS: float64(run.completed) / measured.Seconds()}
	var all []float64
	windows := -1
	for _, c := range run.conns {
		for _, v := range c.rttNS {
			all = append(all, float64(v))
		}
		if windows < 0 || len(c.marks) < windows {
			windows = len(c.marks)
		}
	}
	if len(all) == 0 {
		return cs
	}
	sort.Float64s(all)
	p99, _ := tailAt(all, 0.99)
	cs.P99US = p99 / 1e3
	cs.Windows = max(windows, 0)
	if cs.Windows == 0 {
		// Shorter than a second: the whole run is the one window.
		cs.Windows = 1
		cs.SteadyQPS, cs.SteadyP50US, cs.SteadyP99US = cs.QPS, quantile(all, 0.5)/1e3, cs.P99US
		cs.FastQPS = cs.QPS
		return cs
	}
	var qps, p50s, p99s []float64
	var win []float64
	for w := 0; w < cs.Windows; w++ {
		win = win[:0]
		for _, c := range run.conns {
			lo := int32(0)
			if w > 0 {
				lo = c.marks[w-1]
			}
			for _, v := range c.rttNS[lo:c.marks[w]] {
				win = append(win, float64(v))
			}
		}
		qps = append(qps, float64(len(win)))
		if len(win) == 0 {
			continue
		}
		sort.Float64s(win)
		t, _ := tailAt(win, 0.99)
		p50s = append(p50s, quantile(win, 0.5)/1e3)
		p99s = append(p99s, t/1e3)
	}
	cs.SteadyQPS, cs.SteadyP50US, cs.SteadyP99US = median(qps), median(p50s), median(p99s)
	cs.WindowQPS = qps
	cs.FastQPS = quantile(sortedCopy(qps), 0.9)
	return cs
}

// layerSources is everything the per-layer table is computed from.
type layerSources struct {
	stageUS        map[obs.Stage]float64
	rejected       int64
	rateLimited    int64
	rttUS, selfUS  []float64 // ascending
	completed      int64
	wallNS         int64
	depth          []int // polled central-queue depth
	assign         assignStats
	proc           procDelta
	goroutinesPeak int
	p50MS          float64 // open loops: from the due time; closed: round trip
	p99MS, p999MS  float64
	p99US          float64
	lateP99MS      float64
	lateMaxMS      float64
	drainS         float64
	affinityShare  float64
	expired        int64
	gpuShare       float64
	upperBoundQPS  float64
	goodputQPS     float64
	// overhead is the traced pass's cost relative to the untraced
	// reference pass of the same run.
	overhead float64
}

func buildLayerMetrics(src layerSources) map[string]metric {
	m := newMetricSet(perLayer)
	m.set("ingress.self_us_p50", quantile(src.selfUS, 0.5))
	selfP99, _ := tailAt(src.selfUS, 0.99)
	m.set("ingress.self_us_p99", selfP99)
	m.set("ingress.admit_us_mean", src.stageUS[obs.StageAdmit])
	m.set("ingress.rejected", float64(src.rejected))
	m.set("ingress.rate_limited", float64(src.rateLimited))

	queue, flight := src.stageUS[obs.StageQueue], src.stageUS[obs.StageFlight]
	wait, serve := src.stageUS[obs.StageWait], src.stageUS[obs.StageServe]
	wire := flight - wait - serve
	m.set("server.queue_us_mean", queue)
	m.set("server.instance_wait_us_mean", wait)
	m.set("server.wire_us_mean", wire)
	m.set("server.serve_us_mean", serve)
	if len(src.depth) > 0 {
		sum, peak := 0, 0
		for _, d := range src.depth {
			sum += d
			peak = max(peak, d)
		}
		m.set("server.queue_depth_max", float64(peak))
		m.set("server.queue_depth_mean", float64(sum)/float64(len(src.depth)))
	}
	a := src.assign
	if src.completed > 0 {
		m.set("server.rounds_per_query", float64(a.calls)/float64(src.completed))
	}
	if a.rowsOffered > 0 {
		m.set("server.round_yield", float64(a.assigned)/float64(a.rowsOffered))
	}
	m.set("server.codec_ns_per_query", codecNSPerQuery())
	m.set("server.affinity_hit_share", src.affinityShare)
	m.set("server.deadline_expired", float64(src.expired))
	m.set("server.gpu_share", src.gpuShare)

	m.set("core.assign_us_mean", a.usMean)
	m.set("core.assign_us_p99", a.usP99)
	m.set("core.assign_rows_p50", a.rowsP50)
	m.set("core.assign_rows_p99", a.rowsP99)
	if src.wallNS > 0 {
		m.set("core.assign_busy_share", float64(a.busyNS)/float64(src.wallNS))
	}
	m.set("core.assign_allocs_per_call", a.allocsPerCall)
	m.set("core.assign_bytes_per_call", a.bytesPerCall)
	m.set("core.upper_bound_qps", src.upperBoundQPS)
	if src.upperBoundQPS > 0 {
		m.set("core.bound_gap", src.goodputQPS/src.upperBoundQPS)
	}
	m.set("assignment.solve_us_p50shape", a.solveP50US)
	m.set("assignment.solve_us_p99shape", a.solveP99)
	m.set("assignment.solve_allocs", a.solveAllocs)
	m.set("obs.record_ns", histRecordNS())

	m.set("proc.cpu_us_per_query", src.proc.cpuUSPerQuery(src.completed))
	m.set("proc.gc_pause_ms_total", float64(src.proc.gcPauseNS)/1e6)
	m.set("proc.gc_cycles", float64(src.proc.gcCycles))
	m.set("proc.heap_inuse_mb", float64(src.proc.heapInuse)/(1<<20))
	m.set("proc.peak_rss_mb", float64(src.proc.maxRSSKB)/1024)
	if src.proc.cpuNS > 0 {
		m.set("proc.sys_cpu_share", float64(src.proc.sysNS)/float64(src.proc.cpuNS))
	}
	m.set("proc.goroutines_peak", float64(src.goroutinesPeak))

	rttMean := mean(src.rttUS)
	m.set("client.rtt_us_mean", rttMean)
	m.set("client.p50_ms", src.p50MS)
	m.set("client.p99_ms", src.p99MS)
	m.set("client.p999_ms", src.p999MS)
	m.set("client.p99_us", src.p99US)
	m.set("client.gen_late_ms_p99", src.lateP99MS)
	m.set("client.gen_late_ms_max", src.lateMaxMS)
	m.set("client.drain_s", src.drainS)

	// The stages must add up to what the client saw; what is left over
	// is named, not hidden.
	if rttMean > 0 {
		m.set("trace.residual_share", (rttMean-(mean(src.selfUS)+queue+wire+wait+serve))/rttMean)
	}
	m.set("trace.overhead_share", src.overhead)
	return m.vals
}
