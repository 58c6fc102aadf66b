package main

import "testing"

// TestSoakFaultsRefusedBeforeLaunch: a fault spec that soak.Run would
// refuse only after the fleet is up is refused by the pure check runSoak
// applies before it launches anything.
func TestSoakFaultsRefusedBeforeLaunch(t *testing.T) {
	for _, spec := range []string{"stall@0.6", "bogus@0.3", "kill@1.2", "wedge@0.5:100ms"} {
		if _, err := parseFaults([]string{"kill@0.3", spec}); err == nil {
			t.Errorf("%s accepted", spec)
		}
	}
	good := []string{"kill@0.3", "preempt@0.45:800ms", "stall@0.6:400ms", "delay@0.2:1s:20ms", "partition@0.7"}
	if faults, err := parseFaults(good); err != nil || len(faults) != len(good) {
		t.Fatalf("a good campaign: %v, %v", faults, err)
	}
}
