// Package models is the catalog of industry-grade ML inference models the
// paper evaluates (Table 3) together with their ground-truth latency
// surfaces on each instance type.
//
// The paper measures that inference latency is a deterministic, almost
// perfectly linear function of the query batch size (Pearson rho > 0.99 for
// every model/instance pair, < 0.5% variance; Sec. 5.1). We therefore model
// the latency of model m on instance type t as
//
//	lat(b) = a[m,t] + k[m,t] * b   (milliseconds, b = batch size)
//
// calibrated per model so the paper's qualitative regime holds: the base
// GPU instance (g4dn.xlarge) meets QoS at the maximum batch size 1000 while
// every auxiliary CPU type violates QoS beyond a per-type cutoff s, and
// auxiliary types deliver more QPS per dollar than the GPU on small batches.
package models

import (
	"fmt"
	"math"

	"kairos/internal/cloud"
)

// MaxBatch is the largest query batch size the system accepts; Kairos
// limits queries to 1000 requests because of QoS constraints (Sec. 5.1).
const MaxBatch = 1000

// Linear is a first-order latency curve lat(b) = Intercept + PerItem*b (ms).
type Linear struct {
	Intercept float64 // fixed per-query overhead in ms
	PerItem   float64 // incremental ms per batched request
}

// At evaluates the curve at batch size b.
func (l Linear) At(b int) float64 { return l.Intercept + l.PerItem*float64(b) }

// Model is one entry of Table 3 plus its latency surface.
type Model struct {
	// Name is the model's short name, e.g. "RM2".
	Name string
	// Description matches Table 3.
	Description string
	// Application is the production service the model backs.
	Application string
	// QoS is the 99th-percentile tail latency target in milliseconds.
	QoS float64
	// Curves maps instance type name to the latency curve.
	Curves map[string]Linear
}

// curve resolves the latency curve for an instance-type name. Spot-market
// variants ("g4dn.xlarge:spot") run the same hardware as their on-demand
// twin, so a missing exact entry falls back to the on-demand name.
func (m Model) curve(instance string) Linear {
	if c, ok := m.Curves[instance]; ok {
		return c
	}
	if od := cloud.OnDemandName(instance); od != instance {
		if c, ok := m.Curves[od]; ok {
			return c
		}
	}
	panic(fmt.Sprintf("models: model %s has no curve for instance type %s", m.Name, instance))
}

// Latency implements Oracle with the deterministic calibrated surface.
func (m Model) Latency(instance string, batch int) float64 {
	c := m.curve(instance)
	if batch < 1 || batch > MaxBatch {
		panic(fmt.Sprintf("models: batch %d outside [1,%d]", batch, MaxBatch))
	}
	return c.At(batch)
}

// CutoffBatch returns the largest batch size the named instance type can
// serve within the QoS target (the per-type boundary s of Sec. 5.2), or 0
// if even batch 1 violates QoS.
func (m Model) CutoffBatch(instance string) int {
	return m.CutoffBatchAt(instance, m.QoS)
}

// CutoffBatchAt is CutoffBatch against an explicit latency target, used when
// evaluating relaxed QoS settings (Fig. 15b).
func (m Model) CutoffBatchAt(instance string, qos float64) int {
	c := m.curve(instance)
	if c.At(1) > qos {
		return 0
	}
	if c.PerItem <= 0 {
		return MaxBatch
	}
	s := int(math.Floor((qos - c.Intercept) / c.PerItem))
	if s > MaxBatch {
		s = MaxBatch
	}
	return s
}

// WithQoS returns a copy of the model with a different QoS target; curves
// are shared (they are immutable by convention).
func (m Model) WithQoS(qos float64) Model {
	out := m
	out.QoS = qos
	return out
}

// Catalog returns the five production models of Table 3, in paper order.
// The latency coefficients are calibration artifacts of this reproduction
// (see DESIGN.md Sec. 4); the QoS targets are the paper's.
func Catalog() []Model {
	g1 := cloud.G4dnXlarge.Name
	c1 := cloud.C5n2xlarge.Name
	c2 := cloud.R5nLarge.Name
	c3 := cloud.T3Xlarge.Name
	return []Model{
		{
			Name:        "NCF",
			Description: "Neural Collaborative Filtering",
			Application: "Movie recommendation",
			QoS:         5,
			Curves: map[string]Linear{
				g1: {1.10, 0.0025},
				c1: {0.75, 0.0088},
				c2: {0.80, 0.0148},
				c3: {1.00, 0.0240},
			},
		},
		{
			Name:        "RM2",
			Description: "Meta's recommendation model class 2",
			Application: "High-accuracy social media posts ranking",
			QoS:         350,
			Curves: map[string]Linear{
				g1: {80.0, 0.0550},
				c1: {90.0, 0.7650},
				c2: {52.0, 0.8000},
				c3: {55.0, 1.5800},
			},
		},
		{
			Name:        "WND",
			Description: "Google Wide and Deep recommender system",
			Application: "Google App Store",
			QoS:         25,
			Curves: map[string]Linear{
				g1: {6.50, 0.0110},
				c1: {4.50, 0.1020},
				c2: {5.20, 0.1220},
				c3: {5.50, 0.1800},
			},
		},
		{
			Name:        "MT-WND",
			Description: "Multi-Task Wide and Deep, predicts multiple metrics in parallel",
			Application: "YouTube video recommendation",
			QoS:         25,
			Curves: map[string]Linear{
				g1: {5.50, 0.0120},
				c1: {4.40, 0.0924},
				c2: {5.00, 0.1300},
				c3: {7.50, 0.1750},
			},
		},
		{
			Name:        "DIEN",
			Description: "Alibaba Deep Interest Evolution Network",
			Application: "E-commerce",
			QoS:         35,
			Curves: map[string]Linear{
				g1: {8.50, 0.0190},
				c1: {8.00, 0.1089},
				c2: {7.20, 0.1400},
				c3: {8.00, 0.1720},
			},
		},
	}
}

// ByName returns the catalog model with the given name.
func ByName(name string) (Model, error) {
	for _, m := range Catalog() {
		if m.Name == name {
			return m, nil
		}
	}
	return Model{}, fmt.Errorf("models: unknown model %q", name)
}

// MustByName is ByName that panics on unknown names; for tests and examples.
func MustByName(name string) Model {
	m, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return m
}

// Names lists the catalog model names in paper order.
func Names() []string {
	cat := Catalog()
	out := make([]string, len(cat))
	for i, m := range cat {
		out[i] = m.Name
	}
	return out
}
