package autopilot

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"

	"kairos/internal/cloud"
	"kairos/internal/core"
	"kairos/internal/obs"
	"kairos/internal/server"
)

// The two golden files under testdata/ were written by the code as it
// stood before the autopilot was split into sense/decide/reconcile/report
// (the hand-unrolled exposition and the seven journal-entry literals), over
// the fixtures below. CI's soak job and `kairosctl status` parse these
// bytes; a refactor of the report owner must not move one.

var shapeAt = time.Date(2026, 10, 4, 12, 0, 0, 0, time.UTC)

// oddModel needs every escape the label writer knows.
const oddModel = `odd"name\`

// promFixture is a fixed control-plane state: two models (one with a
// name that needs escaping), a front door, faults and preemptions on
// record, and a few recorded durations in every histogram family.
func promFixture() (st Status, names []string, plan, preempt obs.HistSnapshot, reg *obs.Registry) {
	names = []string{"NCF", oddModel}
	ncfPlan := ModelPlanStatus{Config: []int{1, 0, 2, 0}, Counts: map[string]int{"g4dn.xlarge": 1, "r5n.large": 2}, Cost: 0.824}
	oddPlan := ModelPlanStatus{Config: []int{0, 1, 0, 0}, Counts: map[string]int{"c5n.2xlarge": 1}, Cost: 0.432}
	st = Status{
		Healthy:        false,
		UptimeSeconds:  12.5,
		DriftThreshold: 0.15,
		SLOPercentile:  99,
		ThroughputQPS:  812.25,
		Utilization:    0.4375,
		ScaleIn:        ScaleInStatus{Enabled: true, Floor: 0.3, Hysteresis: 0.05, TicksBelow: 2, TicksNeeded: 5},
		Faults: FaultStatus{
			InstancesLost: 3, Heals: 2, Pending: true,
			LastFault: shapeAt, LastRecovery: shapeAt.Add(-time.Minute), LastDetail: "NCF/r5n.large at 127.0.0.1:7001: EOF",
			Preemptions: 4, PreemptionsDrained: 3, PreemptionsReplanned: 2, PreemptionDeadlineDeaths: 1,
			LastPreempt: shapeAt.Add(-time.Second), LastPreemptDetail: "NCF/r5n.large at 127.0.0.1:7002: drained",
		},
		LastError: "actuate: launch refused",
		Plan: PlanStatus{
			Models:  map[string]ModelPlanStatus{"NCF": ncfPlan, oddModel: oddPlan},
			Cost:    1.256,
			Replans: 7, LastChange: shapeAt.Add(-2 * time.Second), LastReason: "drift trigger",
		},
		Models: map[string]ModelStatus{
			"NCF": {
				Drift: 0.21, SLOLatencyMS: 5, Plan: ncfPlan, IngressQueue: 9,
				Window: WindowStatus{Observations: 300, MeanBatch: 41.5, LatencySamples: 280, P50MS: 1.5, P95MS: 3.25, P99MS: 4.75, TailMS: 4.75, ThroughputQPS: 700.5, ArrivalQPS: 733},
			},
			oddModel: {Drift: 0, SLOLatencyMS: 25, Plan: oddPlan},
		},
		Fleet: map[string]map[string]int{
			"NCF":    {"r5n.large": 2, "g4dn.xlarge": 1},
			oddModel: {"c5n.2xlarge": 1},
		},
		Ingress: IngressStatus{Enabled: true, HTTPAddr: "127.0.0.1:8080", TCPAddr: "127.0.0.1:8081"},
		Controller: server.Stats{
			Waiting: 6, Submitted: 1000, Completed: 990, Failed: 4,
			Models: map[string]server.ModelStats{
				"NCF":    {Waiting: 5, Submitted: 900, Completed: 893, Failed: 2},
				oddModel: {Waiting: 1, Submitted: 100, Completed: 97, Failed: 2},
			},
			Ingress: map[string]server.IngressStats{
				"NCF":    {Submitted: 850, HTTP: 800, TCP: 50, Rejected: 12, Completed: 840, Failed: 1, Queue: 9},
				oddModel: {Submitted: 100, HTTP: 0, TCP: 100, Rejected: 0, Completed: 97, Failed: 2, Queue: 1},
			},
		},
	}
	var planHist, preemptHist obs.Histogram
	for _, d := range []time.Duration{300 * time.Microsecond, 700 * time.Microsecond, 4 * time.Millisecond} {
		planHist.Record(d)
	}
	preemptHist.Record(130 * time.Millisecond)
	reg = obs.NewRegistry(4, names...)
	reg.Model("NCF").Record(obs.StageE2E, 3*time.Millisecond)
	reg.Model("NCF").Record(obs.StageE2E, 9*time.Millisecond)
	reg.Model("NCF").Record(obs.StageQueue, 250*time.Microsecond)
	reg.Model(oddModel).Record(obs.StageE2E, 40*time.Millisecond)
	reg.Model("NCF").ServeHist("r5n.large").Record(2 * time.Millisecond)
	reg.Model("NCF").ServeHist("g4dn.xlarge").Record(500 * time.Microsecond)
	return st, names, planHist.Snapshot(), preemptHist.Snapshot(), reg
}

// journalCase is one journal entry as its call site describes it: the
// Step cases carry a Decision, the recovery cases only an outcome.
type journalCase struct {
	kind, reason string
	dec          *Decision
	o            outcome
}

// journalFixture has an entry of every kind the journal can hold, with
// every optional field set at least once, and an empty latency window's
// tail (0) on a checked model.
func journalFixture() []journalCase {
	from := core.FleetPlan{"NCF": cloud.Config{0, 0, 2, 0}}
	to := core.FleetPlan{"NCF": cloud.Config{1, 0, 1, 0}}
	md := ModelDecision{Checked: true, Drift: 0.42, TailMS: 12.5, ArrivalQPS: 80, DriftTriggered: true}
	step := func(d Decision) *Decision {
		if d.Models == nil {
			d.Models = map[string]ModelDecision{"NCF": md}
		}
		d.Utilization = 0.61
		return &d
	}
	boom := errors.New("autopilot: replan: boom")
	const detail = "NCF/r5n.large at 127.0.0.1:7001"
	return []journalCase{
		{"replan", "drift trigger (util 0.61, NCF drift 0.420 p99 12.5ms)",
			step(Decision{Checked: true, DriftTriggered: true, Replanned: true, From: from, To: to}),
			outcome{from: from, to: to, planMS: 0.7, actuateMS: 1.5}},
		{"replan", "scale-in trigger (util 0.61, NCF drift 0.420 p99 12.5ms)",
			step(Decision{Checked: true, ScaleInTriggered: true, PlanBudget: 0.149, Replanned: true, From: to, To: from}),
			outcome{from: to, to: from, planMS: 0.25, actuateMS: 3}},
		{"plan-unchanged", "trigger fired but the plan is unchanged",
			step(Decision{Checked: true, SLOTriggered: true, DriftTriggered: true, From: from,
				Models: map[string]ModelDecision{"NCF": {Checked: true, Drift: 0.42, TailMS: 12.5, ArrivalQPS: 80, DriftTriggered: true, SLOTriggered: true}}}),
			outcome{from: from, planMS: 0.7}},
		{"held", "drift in cooldown (0.5s of 2.0s)",
			step(Decision{Checked: true, DriftTriggered: true, Held: true, From: from}), outcome{from: from}},
		{"steady", "steady (util 0.61, NCF drift 0.020 p99 NaNms)",
			step(Decision{Checked: true, From: from,
				Models: map[string]ModelDecision{"NCF": {Checked: true, Drift: 0.02, TailMS: 0, ArrivalQPS: 80}}}),
			outcome{from: from}},
		{"cold", "windows cold (< 30 observations per model)",
			step(Decision{Models: map[string]ModelDecision{"NCF": {}}}), outcome{}},
		{"error", "", step(Decision{Checked: true, DriftTriggered: true, From: from}),
			outcome{from: from, planMS: 0.7, err: boom}},
		{"heal", "healing fault: " + detail + ": EOF", nil, outcome{to: from, actuateMS: 17.25}},
		{"error", "heal: " + detail + ": EOF", nil, outcome{err: errors.New("autopilot: heal: launch refused")}},
		{"preempt", "preemption notice for 127.0.0.1:7001", nil,
			outcome{drainMS: 0.5, err: errors.New("server: no removable instance at 127.0.0.1:7001")}},
		{"preempt", "preempted " + detail + " died mid-drain; eviction redispatch + heal fallback", nil, outcome{drainMS: 801}},
		{"preempt", "preempted " + detail + ": post-drain actuation failed", nil,
			outcome{drainMS: 42.5, err: errors.New("autopilot: preempt: launch refused")}},
		{"preempt", "preempted " + detail + ": drained and re-actuated the plan in force", nil,
			outcome{from: from, to: from, actuateMS: 88, drainMS: 42.5, replanMS: 131}},
	}
}

func checkGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s: line %d differs\n got: %s\nwant: %s", file, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", file, len(gl), len(wl))
}

// TestPrometheusGolden pins /metrics: family order, HELP and TYPE text,
// label sets and escaping, sample formatting.
func TestPrometheusGolden(t *testing.T) {
	st, names, plan, preempt, reg := promFixture()
	var buf bytes.Buffer
	if err := writePrometheus(&buf, &st, names, plan, preempt, reg); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/metrics.golden", buf.Bytes())
	// Without a front door the three ingress families are absent.
	st.Controller.Ingress = nil
	buf.Reset()
	if err := writePrometheus(&buf, &st, names, plan, preempt, reg); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("kairos_ingress_")) {
		t.Fatal("ingress families exposed without a front door")
	}
}

// TestDecisionJournalGolden pins a /decisionz entry of each kind.
func TestDecisionJournalGolden(t *testing.T) {
	a := &Autopilot{wiring: Wiring{Pool: cloud.DefaultPool()}, journal: newJournal(0), now: func() time.Time { return shapeAt }}
	for _, c := range journalFixture() {
		a.record(c.kind, c.reason, c.dec, c.o)
	}
	got, err := json.MarshalIndent(a.Decisions(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/decisionz.golden", append(got, '\n'))
}
