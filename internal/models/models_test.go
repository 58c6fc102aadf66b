package models

import (
	"testing"
	"testing/quick"

	"kairos/internal/cloud"
)

func TestCatalogMatchesTable3(t *testing.T) {
	wantQoS := map[string]float64{
		"NCF":    5,
		"RM2":    350,
		"WND":    25,
		"MT-WND": 25,
		"DIEN":   35,
	}
	cat := Catalog()
	if len(cat) != len(wantQoS) {
		t.Fatalf("catalog has %d models, want %d", len(cat), len(wantQoS))
	}
	for _, m := range cat {
		want, ok := wantQoS[m.Name]
		if !ok {
			t.Fatalf("unexpected model %s", m.Name)
		}
		if m.QoS != want {
			t.Errorf("%s QoS = %v, want %v", m.Name, m.QoS, want)
		}
		if m.Application == "" || m.Description == "" {
			t.Errorf("%s missing Table 3 metadata", m.Name)
		}
		for _, it := range cloud.DefaultPool() {
			if _, ok := m.Curves[it.Name]; !ok {
				t.Errorf("%s has no latency curve for %s", m.Name, it.Name)
			}
		}
	}
}

// TestBaseMeetsQoSAuxiliariesDoNot pins the regime of Sec. 7: only
// g4dn.xlarge can meet QoS for all batch sizes; every auxiliary type
// violates QoS at batch 1000 but can serve some smaller batches.
func TestBaseMeetsQoSAuxiliariesDoNot(t *testing.T) {
	pool := cloud.DefaultPool()
	for _, m := range Catalog() {
		base := pool.Base().Name
		if got := m.Latency(base, MaxBatch); got > m.QoS {
			t.Errorf("%s on %s at batch %d: %vms exceeds QoS %vms", m.Name, base, MaxBatch, got, m.QoS)
		}
		if m.CutoffBatch(base) != MaxBatch {
			t.Errorf("%s base cutoff = %d, want %d", m.Name, m.CutoffBatch(base), MaxBatch)
		}
		for _, it := range pool[1:] {
			if got := m.Latency(it.Name, MaxBatch); got <= m.QoS {
				t.Errorf("%s on auxiliary %s meets QoS at max batch (%vms <= %vms); it must not", m.Name, it.Name, got, m.QoS)
			}
			s := m.CutoffBatch(it.Name)
			if s <= 0 || s >= MaxBatch {
				t.Errorf("%s on %s cutoff s = %d, want within (0,%d)", m.Name, it.Name, s, MaxBatch)
			}
			// The cutoff is exact: s meets QoS, s+1 violates it.
			if m.Latency(it.Name, s) > m.QoS {
				t.Errorf("%s on %s: batch %d should meet QoS", m.Name, it.Name, s)
			}
			if m.Latency(it.Name, s+1) <= m.QoS {
				t.Errorf("%s on %s: batch %d should violate QoS", m.Name, it.Name, s+1)
			}
		}
	}
}

// TestAuxiliaryCostEffectiveOnSmallBatches pins the heterogeneity upside
// (Sec. 4): for small queries, the cheap auxiliary types (r5n.large and
// t3.xlarge) achieve more QPS per dollar than the base GPU, otherwise
// heterogeneous serving could never win. c5n.2xlarge — priced close to the
// GPU — is allowed to be dominated for some models (it is exactly what
// makes configurations like (1,4,2) in Fig. 1 a bad deal).
func TestAuxiliaryCostEffectiveOnSmallBatches(t *testing.T) {
	pool := cloud.DefaultPool()
	const smallBatch = 32
	for _, m := range Catalog() {
		base := pool.Base()
		baseQPSPerDollar := 1000 / m.Latency(base.Name, smallBatch) / base.PricePerHour
		for _, it := range pool[1:] {
			if it.Name == cloud.C5n2xlarge.Name {
				continue
			}
			auxQPSPerDollar := 1000 / m.Latency(it.Name, smallBatch) / it.PricePerHour
			if auxQPSPerDollar <= baseQPSPerDollar {
				t.Errorf("%s: %s small-batch QPS/$ %.1f not better than base %.1f",
					m.Name, it.Name, auxQPSPerDollar, baseQPSPerDollar)
			}
		}
	}
}

// TestGPUWinsLargeBatches pins the other half of the trade-off: at the
// maximum batch size the base GPU must be the fastest device in absolute
// latency ("queries with larger batch sizes have higher speedups from CPU
// to GPU", Sec. 5.1).
func TestGPUWinsLargeBatches(t *testing.T) {
	pool := cloud.DefaultPool()
	for _, m := range Catalog() {
		baseLat := m.Latency(pool.Base().Name, MaxBatch)
		for _, it := range pool[1:] {
			if m.Latency(it.Name, MaxBatch) <= baseLat {
				t.Errorf("%s: auxiliary %s beats GPU at batch %d", m.Name, it.Name, MaxBatch)
			}
		}
	}
}

// TestSpeedupGrowsWithBatch verifies that the CPU->GPU speedup is
// monotonically increasing in batch size for every model and auxiliary type,
// the property Kairos's matching exploits (Fig. 5).
func TestSpeedupGrowsWithBatch(t *testing.T) {
	pool := cloud.DefaultPool()
	for _, m := range Catalog() {
		for _, it := range pool[1:] {
			prev := 0.0
			for _, b := range []int{1, 10, 100, 500, 1000} {
				speedup := m.Latency(it.Name, b) / m.Latency(pool.Base().Name, b)
				if speedup < prev {
					t.Errorf("%s/%s: speedup not monotone at batch %d", m.Name, it.Name, b)
				}
				prev = speedup
			}
		}
	}
}

func TestLatencyMonotoneInBatch(t *testing.T) {
	for _, m := range Catalog() {
		for inst := range m.Curves {
			f := func(a, b uint16) bool {
				ba := int(a%MaxBatch) + 1
				bb := int(b%MaxBatch) + 1
				if ba > bb {
					ba, bb = bb, ba
				}
				return m.Latency(inst, ba) <= m.Latency(inst, bb)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
				t.Errorf("%s/%s: %v", m.Name, inst, err)
			}
		}
	}
}

func TestLatencyPanicsOutsideRange(t *testing.T) {
	m := MustByName("RM2")
	for _, batch := range []int{0, -1, MaxBatch + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for batch %d", batch)
				}
			}()
			m.Latency(cloud.G4dnXlarge.Name, batch)
		}()
	}
}

func TestLatencyPanicsUnknownInstance(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustByName("NCF").Latency("p3.2xlarge", 10)
}

func TestByName(t *testing.T) {
	m, err := ByName("DIEN")
	if err != nil || m.Name != "DIEN" {
		t.Fatalf("ByName(DIEN) = %v, %v", m.Name, err)
	}
	if _, err := ByName("GPT-5"); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

func TestNames(t *testing.T) {
	want := []string{"NCF", "RM2", "WND", "MT-WND", "DIEN"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names()[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestWithQoSRelaxesCutoff(t *testing.T) {
	m := MustByName("WND")
	inst := cloud.C5n2xlarge.Name
	relaxed := m.WithQoS(m.QoS * 1.2) // Fig. 15b: QoS target 20% higher
	if relaxed.QoS != m.QoS*1.2 {
		t.Fatalf("relaxed QoS = %v", relaxed.QoS)
	}
	if relaxed.CutoffBatch(inst) <= m.CutoffBatch(inst) {
		t.Fatal("relaxing QoS must increase the auxiliary cutoff")
	}
	// Original model untouched.
	if m.QoS != 25 {
		t.Fatal("WithQoS mutated the receiver")
	}
}

func TestCutoffBatchAtZero(t *testing.T) {
	m := MustByName("NCF")
	if got := m.CutoffBatchAt(cloud.T3Xlarge.Name, 0.01); got != 0 {
		t.Fatalf("cutoff at impossible QoS = %d, want 0", got)
	}
}
