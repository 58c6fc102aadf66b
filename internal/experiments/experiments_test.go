package experiments

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"kairos/internal/cloud"
	"kairos/internal/models"
)

// tinyScale keeps unit tests fast; shape assertions tolerate its noise.
func tinyScale() Scale {
	return Scale{Seed: 42, ProbeQueries: 700, PrecisionFrac: 0.08, OracleQueries: 3000, MonitorSamples: 3000, Budget: 2.5}
}

func TestTables(t *testing.T) {
	t3 := Table3()
	for _, name := range []string{"NCF", "RM2", "WND", "MT-WND", "DIEN", "350 ms"} {
		if !strings.Contains(t3, name) {
			t.Errorf("Table3 missing %q", name)
		}
	}
	t4 := Table4()
	for _, name := range []string{"g4dn.xlarge", "c5n.2xlarge", "r5n.large", "t3.xlarge", "$0.526/hr"} {
		if !strings.Contains(t4, name) {
			t.Errorf("Table4 missing %q", name)
		}
	}
}

func TestFig1Shape(t *testing.T) {
	t.Parallel()
	res := Fig1(tinyScale())
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The paper's headline motivations: at least one heterogeneous config
	// beats homogeneous, and at least one loses to it.
	better, worse := false, false
	for _, row := range res.Rows[1:] {
		if row.OverHom > 1.05 {
			better = true
		}
		if row.OverHom < 0.95 {
			worse = true
		}
	}
	if !better || !worse {
		t.Fatalf("expected heterogeneity to both win and lose: %+v", res.Rows)
	}
	if res.String() == "" {
		t.Fatal("empty render")
	}
}

func TestFig5AllServedByKairosOnly(t *testing.T) {
	t.Parallel()
	res := Fig5()
	if len(res.Queries) != 4 {
		t.Fatalf("queries = %d", len(res.Queries))
	}
	naiveOK, kairosOK := 0, 0
	for _, q := range res.Queries {
		if q.NaiveMeets {
			naiveOK++
		}
		if q.KairosMeets {
			kairosOK++
		}
	}
	if kairosOK != 4 {
		t.Fatalf("Kairos served %d/4 within QoS: %+v", kairosOK, res.Queries)
	}
	if naiveOK != 3 {
		t.Fatalf("naive FCFS served %d/4, want exactly 3 (Fig. 5's 33%% story): %+v", naiveOK, res.Queries)
	}
	if !strings.Contains(res.String(), "VIOLATES") {
		t.Fatal("render must flag the violation")
	}
}

func TestFig7MatchesPaper(t *testing.T) {
	res := Fig7()
	if res.Scenario1 != 225 {
		t.Fatalf("scenario 1 = %v", res.Scenario1)
	}
	if res.Scenario2 < 233 || res.Scenario2 > 234 {
		t.Fatalf("scenario 2 = %v", res.Scenario2)
	}
}

func TestFig8GainsShape(t *testing.T) {
	t.Parallel()
	res := Fig8(tinyScale())
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	gains := map[string]float64{}
	for _, row := range res.Rows {
		gains[row.Model] = row.Gain
		if row.Gain < 1.0 {
			t.Errorf("%s gain %.2f below 1 (heterogeneity must win)", row.Model, row.Gain)
		}
		if row.Pick.Base() == 0 {
			t.Errorf("%s pick %v lacks base instances", row.Model, row.Pick)
		}
	}
	// Paper ordering: RM2 largest gain, MT-WND smallest.
	for m, g := range gains {
		if m != "RM2" && g > gains["RM2"] {
			t.Errorf("%s gain %.2f exceeds RM2's %.2f", m, g, gains["RM2"])
		}
	}
	if gains["RM2"] < 1.6 {
		t.Errorf("RM2 gain %.2f too low (paper: 2.03)", gains["RM2"])
	}
}

func TestFig12KairosOneShotIsFlat(t *testing.T) {
	t.Parallel()
	res := Fig12(tinyScale())
	series := res.Series["KAIROS"]
	if len(series) != res.Steps {
		t.Fatalf("series length %d", len(series))
	}
	for _, v := range series[1:] {
		if v != series[0] {
			t.Fatal("KAIROS series must be flat (one-shot, no exploration)")
		}
	}
	if series[0] <= 0 {
		t.Fatal("KAIROS one-shot throughput must be positive after the shift")
	}
	// Kairos's one-shot level should be at or above the early exploration
	// steps of the searching schemes (the Fig. 12 story).
	for _, scheme := range []string{"RIBBON", "DRS"} {
		if res.Series[scheme][0] > series[0] {
			t.Errorf("%s first evaluation (%.1f) already beats Kairos one-shot (%.1f)",
				scheme, res.Series[scheme][0], series[0])
		}
	}
}

func TestFig13PickNearOptimal(t *testing.T) {
	t.Parallel()
	scale := tinyScale()
	res := Fig13(scale, 8)
	for _, row := range res.Rows {
		if len(row.Configs) == 0 {
			t.Fatalf("%s: empty candidates", row.Model)
		}
		if row.PickIndex < 0 {
			t.Errorf("%s: similarity pick outside top candidates", row.Model)
			continue
		}
		pickQPS := row.ActualQPS[row.PickIndex]
		bestQPS := row.ActualQPS[row.BestIndex]
		if pickQPS < 0.7*bestQPS {
			t.Errorf("%s: pick %.1f far below best %.1f", row.Model, pickQPS, bestQPS)
		}
	}
}

func TestRegistryRunsEverything(t *testing.T) {
	ids := IDs()
	if len(ids) != len(Registry) {
		t.Fatalf("IDs() returned %d of %d", len(ids), len(Registry))
	}
	// Order check: tables first, then figures ascending.
	if ids[0] != "table3" || ids[1] != "table4" || ids[2] != "fig1" {
		t.Fatalf("order = %v", ids)
	}
	last := 0
	for _, id := range ids[2:] {
		var n int
		if _, err := fmtSscanf(id, &n); err != nil {
			t.Fatalf("bad id %s", id)
		}
		if n < last {
			t.Fatalf("figures out of order: %v", ids)
		}
		last = n
	}
	if _, err := Run("fig99", tinyScale()); err == nil {
		t.Fatal("unknown experiment must error")
	}
	// Cheap experiments run end to end through the registry.
	for _, id := range []string{"table3", "table4", "fig5", "fig7"} {
		out, err := Run(id, tinyScale())
		if err != nil || out.String() == "" {
			t.Fatalf("Run(%s): %v", id, err)
		}
	}
}

// TestExperimentsSideBySide runs every registered experiment that is cheap
// at tinyScale all at once, as kairosctl bench -run all does, then one by
// one, and requires the same output: the experiments share no mutable
// state (go test -race checks that claim) and seed their own streams.
func TestExperimentsSideBySide(t *testing.T) {
	// Each of these takes over 2 s at tinyScale on a 2-vCPU VM (fig9 3.3,
	// fig10 14.1, fig11 20.7, fig13 2.5, fig15 8.6); together with the
	// rest they take 51 s, which -race multiplies about eightfold.
	slow := map[string]bool{"fig9": true, "fig10": true, "fig11": true, "fig13": true, "fig15": true}
	var ids []string
	for _, id := range IDs() {
		if !slow[id] {
			ids = append(ids, id)
		}
	}
	side := make([]string, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			side[i] = Registry[id](tinyScale()).String()
		}()
	}
	wg.Wait()
	for i, id := range ids {
		if serial := Registry[id](tinyScale()).String(); serial != side[i] {
			t.Errorf("%s side by side:\n%s\none by one:\n%s", id, side[i], serial)
		}
	}
}

func fmtSscanf(id string, n *int) (int, error) {
	if _, err := sscanf(id, "fig%d", n); err != nil {
		return 0, err
	}
	return *n, nil
}

func sscanf(s, format string, args ...any) (int, error) {
	return fmt.Sscanf(s, format, args...)
}

func TestEnvMeasureUsesBudgetedSpec(t *testing.T) {
	t.Parallel()
	env := NewEnv(tinyScale(), cloud.ThreeTypePool(), mustModel("RM2"))
	qps := env.Measure(cloud.Config{1, 0, 0}, env.KairosFactory())
	if qps <= 0 {
		t.Fatal("single base instance must have positive throughput")
	}
	if env.HomogeneousQPS() <= qps {
		t.Fatal("4-instance homogeneous must beat a single instance")
	}
}

func mustModel(name string) models.Model { return models.MustByName(name) }

func TestFig14KairosBestPerConfig(t *testing.T) {
	t.Parallel()
	res := Fig14(tinyScale(), 3)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.OracleQPS <= 0 {
		t.Fatal("oracle reference missing")
	}
	for _, row := range res.Rows {
		k := row.QPS["KAIROS"]
		for _, scheme := range []string{"RIBBON", "CLKWRK"} {
			if k < row.QPS[scheme]*0.95 {
				t.Errorf("%v: KAIROS %.1f below %s %.1f", row.Config, k, scheme, row.QPS[scheme])
			}
		}
		// The upper bound caps the Kairos measurement (within probe noise).
		if k > row.UpperBound*1.1 {
			t.Errorf("%v: measured %.1f exceeds UB %.1f", row.Config, k, row.UpperBound)
		}
	}
	if res.String() == "" {
		t.Fatal("empty render")
	}
}

func TestFig15BudgetScaling(t *testing.T) {
	t.Parallel()
	scale := tinyScale()
	res := Fig15(scale)
	if len(res.BudgetX4.Rows) != 5 || len(res.HighQoS.Rows) != 5 {
		t.Fatalf("rows: %d / %d", len(res.BudgetX4.Rows), len(res.HighQoS.Rows))
	}
	for _, row := range res.BudgetX4.Rows {
		if row.Gain < 1.0 {
			t.Errorf("budget x4: %s gain %.2f below 1", row.Model, row.Gain)
		}
	}
	for _, row := range res.HighQoS.Rows {
		if row.Gain < 1.0 {
			t.Errorf("high QoS: %s gain %.2f below 1", row.Model, row.Gain)
		}
	}
	if res.String() == "" {
		t.Fatal("empty render")
	}
}

func TestFig16NoiseRobustness(t *testing.T) {
	t.Parallel()
	res := Fig16(tinyScale())
	// 5% prediction noise must not destroy the heterogeneity gains
	// (Fig. 16b: "continues to offer similar improvements").
	for _, row := range res.Noise.Rows {
		if row.Gain < 1.0 {
			t.Errorf("noise: %s gain %.2f below 1", row.Model, row.Gain)
		}
	}
	if res.String() == "" {
		t.Fatal("empty render")
	}
}
