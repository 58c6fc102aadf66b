package main

import (
	"math"
	"strings"
	"testing"
)

// TestCheckLoad: the load mode and autopilot refuse, before anything is
// dialed or launched, a -rate that has no Poisson gap and a -queries that
// has no load; every finite positive rate and any count from 0 up passes.
func TestCheckLoad(t *testing.T) {
	for _, tc := range []struct {
		rate    float64
		queries int
		wantErr string // "" must pass
	}{
		{rate: 300, queries: 2000},
		{rate: 1e-9, queries: 0},
		{rate: math.MaxFloat64, queries: 1},
		{rate: 0, queries: 200, wantErr: "-rate 0 is not finite and positive"},
		{rate: -5, queries: 200, wantErr: "-rate -5 is not finite and positive"},
		{rate: math.NaN(), queries: 200, wantErr: "-rate NaN is not finite and positive"},
		{rate: math.Inf(1), queries: 200, wantErr: "-rate +Inf is not finite and positive"},
		{rate: math.Inf(-1), queries: 200, wantErr: "-rate -Inf is not finite and positive"},
		{rate: 300, queries: -1, wantErr: "-queries -1 is negative"},
	} {
		err := checkLoad(tc.rate, tc.queries)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("checkLoad(%v, %d) = %v, want nil", tc.rate, tc.queries, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("checkLoad(%v, %d) = %v, want %q", tc.rate, tc.queries, err, tc.wantErr)
		}
	}
}
