package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one hop of a query's life. Stages are measured as
// durations between timestamps the serving path already takes — the
// flight recorder adds no clock reads to the controller hot path.
type Stage int

const (
	// StageIngress: front-door receive → reply ready (the client's view).
	StageIngress Stage = iota
	// StageAdmit: front-door receive → admission decision.
	StageAdmit
	// StageQueue: controller enqueue → dispatch write (scheduler wait).
	StageQueue
	// StageFlight: dispatch write → reply decode (wire + instance,
	// including the instance's serve time).
	StageFlight
	// StageWait: instance request receive → serve-slot acquisition.
	// Measured on the instance and carried back in traced replies, so
	// it only covers sampled queries.
	StageWait
	// StageServe: the instance's service time (predicted model ms
	// converted to wall nanoseconds at the controller's TimeScale).
	StageServe
	// StageE2E: controller enqueue → reply decode.
	StageE2E

	NumStages int = iota
)

var stageNames = [NumStages]string{
	"ingress", "admit", "queue", "flight", "instance_wait", "serve", "e2e",
}

func (s Stage) String() string {
	if s < 0 || int(s) >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// Stages lists every stage in order.
func Stages() []Stage {
	out := make([]Stage, NumStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// Registry is the per-process flight recorder: one ModelObs per served
// model, a shared sampling policy, and the instance-type intern table
// that lets hot-path ring writes store small ints instead of strings.
type Registry struct {
	sampler  Sampler
	ringSize int

	mu        sync.Mutex // intern table + cold ModelObs setup
	typeIDs   map[string]int
	typeNames []string

	models map[string]*ModelObs
	names  []string
}

// NewRegistry builds a registry for a fixed model set with the default
// sampling rate (1/DefaultSampleEvery, seed 0) and ringSize trace
// records retained per model (≤0 picks the default 1024).
func NewRegistry(ringSize int, models ...string) *Registry {
	r := &Registry{
		ringSize: ringSize,
		typeIDs:  make(map[string]int),
		models:   make(map[string]*ModelObs, len(models)),
	}
	r.sampler.Configure(DefaultSampleEvery, 0)
	for _, m := range models {
		if _, ok := r.models[m]; ok {
			continue
		}
		r.models[m] = &ModelObs{reg: r, model: m, ring: newRing(ringSize)}
		r.names = append(r.names, m)
	}
	sort.Strings(r.names)
	return r
}

// SetSampling retunes the trace sampling policy at runtime: trace
// ~1/every queries (0 disables tracing, 1 traces everything),
// deterministically keyed by seed.
func (r *Registry) SetSampling(every uint64, seed uint64) { r.sampler.Configure(every, seed) }

// Sampling returns the current (every, seed) policy.
func (r *Registry) Sampling() (every, seed uint64) {
	return r.sampler.Every(), r.sampler.Seed()
}

// Model returns the named model's recorder, or nil if the model is not
// registered.
func (r *Registry) Model(name string) *ModelObs { return r.models[name] }

// Models lists registered model names, sorted.
func (r *Registry) Models() []string { return r.names }

// Intern maps an instance-type name to a small stable int for ring
// records. Cold path (called at instance dial time).
func (r *Registry) Intern(typeName string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.typeIDs[typeName]; ok {
		return id
	}
	id := len(r.typeNames)
	r.typeIDs[typeName] = id
	r.typeNames = append(r.typeNames, typeName)
	return id
}

// TypeName resolves an interned instance-type ID.
func (r *Registry) TypeName(id int) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id < 0 || id >= len(r.typeNames) {
		return ""
	}
	return r.typeNames[id]
}

// serveEntry pairs an instance type with its serve-time histogram;
// ModelObs keeps a copy-on-write slice so exposition can iterate
// without touching the hot path.
type serveEntry struct {
	typeName string
	hist     *Histogram
}

// ModelObs is one model's recorder: stage, per-instance-type serve and
// busy-clock lag histograms, and the sampled-trace ring.
type ModelObs struct {
	reg    *Registry
	model  string
	stages [NumStages]Histogram
	serve  atomic.Pointer[[]serveEntry]
	ring   *Ring
	// BusyLag is how far the busy clock trailed each reply (0 when early).
	BusyLag Histogram
}

// Name returns the model name.
func (m *ModelObs) Name() string { return m.model }

// Record adds one observation to a stage histogram. Hot path: two
// atomic adds.
func (m *ModelObs) Record(st Stage, d time.Duration) { m.stages[st].Record(d) }

// StageSnapshot copies one stage histogram's counters.
func (m *ModelObs) StageSnapshot(st Stage) HistSnapshot { return m.stages[st].Snapshot() }

// Sampled reports whether this query ID carries a trace, under the
// registry's deterministic sampling policy.
func (m *ModelObs) Sampled(id int64) bool { return m.reg.sampler.Sample(uint64(id)) }

// ServeHist returns (creating on first use) the serve-time histogram
// for one instance type. Cold path — call at dial time and cache the
// pointer; Record on the result is the hot path.
func (m *ModelObs) ServeHist(typeName string) *Histogram {
	if cur := m.serve.Load(); cur != nil {
		for _, e := range *cur {
			if e.typeName == typeName {
				return e.hist
			}
		}
	}
	m.reg.mu.Lock()
	defer m.reg.mu.Unlock()
	cur := m.serve.Load()
	var entries []serveEntry
	if cur != nil {
		for _, e := range *cur {
			if e.typeName == typeName {
				return e.hist
			}
		}
		entries = append(entries, *cur...)
	}
	h := &Histogram{}
	entries = append(entries, serveEntry{typeName: typeName, hist: h})
	m.serve.Store(&entries)
	return h
}

// ServeSnapshot is one instance type's serve-time histogram snapshot.
type ServeSnapshot struct {
	Type string
	Snap HistSnapshot
}

// ServeByType snapshots the per-instance-type serve histograms.
func (m *ModelObs) ServeByType() []ServeSnapshot {
	cur := m.serve.Load()
	if cur == nil {
		return nil
	}
	out := make([]ServeSnapshot, 0, len(*cur))
	for _, e := range *cur {
		out = append(out, ServeSnapshot{Type: e.typeName, Snap: e.hist.Snapshot()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Type < out[j].Type })
	return out
}

// Trace records one sampled query's completed lifecycle in the ring.
// typeID is the interned instance type, or -1 if the query never
// reached an instance.
func (m *ModelObs) Trace(rec *TraceRecord, typeID int) { m.ring.put(rec, typeID) }

// Traces returns up to max retained trace records, newest first.
func (m *ModelObs) Traces(max int) []TraceRecord {
	return m.ring.dump(max, m.reg.TypeName)
}
