package kairos

import (
	"strings"
	"testing"
)

func TestNewOptionValidation(t *testing.T) {
	t.Parallel()
	pool := DefaultPool()
	model, _ := ModelByName("RM2")

	cases := []struct {
		name    string
		opts    []Option
		wantErr string
	}{
		{
			name:    "missing pool",
			opts:    []Option{WithModel(model)},
			wantErr: "needs a pool",
		},
		{
			name:    "missing model",
			opts:    []Option{WithPool(pool)},
			wantErr: "needs a model",
		},
		{
			name:    "empty pool",
			opts:    []Option{WithPool(Pool{}), WithModel(model)},
			wantErr: "non-empty pool",
		},
		{
			name:    "zero-QoS model",
			opts:    []Option{WithPool(pool), WithModel(Model{Name: "bad"})},
			wantErr: "positive QoS",
		},
		{
			name:    "unknown model name",
			opts:    []Option{WithPool(pool), WithModelName("nope")},
			wantErr: "nope",
		},
		{
			name:    "unknown policy",
			opts:    []Option{WithPool(pool), WithModel(model), WithPolicy("nope")},
			wantErr: `unknown policy "nope"`,
		},
		{
			name:    "non-positive budget",
			opts:    []Option{WithPool(pool), WithModel(model), WithBudget(0)},
			wantErr: "budget must be positive",
		},
		{
			name:    "negative budget",
			opts:    []Option{WithPool(pool), WithModel(model), WithBudget(-1)},
			wantErr: "budget must be positive",
		},
		{
			name:    "nil monitor",
			opts:    []Option{WithPool(pool), WithModel(model), WithMonitor(nil)},
			wantErr: "non-nil monitor",
		},
		{
			name:    "empty batch samples",
			opts:    []Option{WithPool(pool), WithModel(model), WithBatchSamples(nil)},
			wantErr: "non-empty sample",
		},
		{
			name:    "nil trace",
			opts:    []Option{WithPool(pool), WithModel(model), WithTrace(nil)},
			wantErr: "non-nil distribution",
		},
		{
			name:    "negative probe queries",
			opts:    []Option{WithPool(pool), WithModel(model), WithProbeQueries(-1)},
			wantErr: "probe queries",
		},
		{
			name:    "precision fraction too large",
			opts:    []Option{WithPool(pool), WithModel(model), WithPrecisionFrac(1)},
			wantErr: "precision fraction",
		},
		{
			name:    "negative DRS threshold",
			opts:    []Option{WithPool(pool), WithModel(model), WithDRSThreshold(-1)},
			wantErr: "DRS threshold",
		},
		{
			name:    "negative partitions",
			opts:    []Option{WithPool(pool), WithModel(model), WithPartitions(-1)},
			wantErr: "partitions",
		},
		{
			name:    "nil option",
			opts:    []Option{WithPool(pool), WithModel(model), nil},
			wantErr: "nil option",
		},
		{
			name: "valid full set",
			opts: []Option{
				WithPool(pool), WithModelName("RM2"), WithBudget(2.5),
				WithPolicy("ribbon"), WithMonitor(NewMonitor()),
				WithBatchSamples([]int{1, 2, 3}), WithTrace(DefaultTrace()),
				WithSeed(7), WithDRSThreshold(100), WithPartitions(2),
				WithProbeQueries(1200), WithPrecisionFrac(0.06),
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New(tc.opts...)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("New() error: %v", err)
				}
				if e == nil {
					t.Fatal("New() returned nil engine")
				}
				return
			}
			if err == nil {
				t.Fatalf("New() succeeded, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("New() error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

func TestNewDefaults(t *testing.T) {
	t.Parallel()
	pool := DefaultPool()
	model, _ := ModelByName("RM2")
	e, err := New(WithPool(pool), WithModel(model))
	if err != nil {
		t.Fatal(err)
	}
	if e.Policy() != DefaultPolicy {
		t.Fatalf("default policy = %q, want %q", e.Policy(), DefaultPolicy)
	}
	if e.Monitor() == nil {
		t.Fatal("engine must own a monitor by default")
	}
	if e.Budget() != 0 {
		t.Fatalf("unset budget = %v, want 0", e.Budget())
	}
	if _, err := e.Plan(); err == nil {
		t.Fatal("Plan without budget must error")
	}
	if _, err := e.Rank(); err == nil {
		t.Fatal("Rank without budget must error")
	}
	if _, err := e.PlanFleet(); err == nil {
		t.Fatal("PlanFleet without budget must error")
	}
}

func TestEngineConfigValidation(t *testing.T) {
	t.Parallel()
	pool := DefaultPool()
	model, _ := ModelByName("RM2")
	e, err := New(WithPool(pool), WithModel(model))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Evaluate(Config{1}, RunOptions{RatePerSec: 1, DurationMS: 100}); err == nil {
		t.Fatal("mismatched config must error")
	}
	if _, err := e.AllowableThroughput(Config{0, 0, 0, 0}); err == nil {
		t.Fatal("empty config must error")
	}
	if _, err := e.OracleThroughput(Config{1, 1}); err == nil {
		t.Fatal("mismatched config must error")
	}
	if _, err := e.UpperBound(Config{0, 0, 0, 0}); err == nil {
		t.Fatal("empty config must error")
	}
}
