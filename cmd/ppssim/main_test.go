package main

import (
	"math"
	"testing"

	"ppsim"
)

func TestBuildTrafficKinds(t *testing.T) {
	cfg := ppsim.Config{N: 8, K: 4, RPrime: 2, Algorithm: ppsim.Algorithm{Name: "rr"}}
	for _, kind := range []string{"bernoulli", "hotspot", "onoff", "permutation", "flood", "steering", "concentration", "herding"} {
		src, err := buildTraffic(cfg, kind, 0.5, 1, 500)
		if err != nil {
			t.Errorf("%s: %v", kind, err)
			continue
		}
		if src == nil {
			t.Errorf("%s: nil source", kind)
		}
	}
	if _, err := buildTraffic(cfg, "bogus", 0.5, 1, 100); err == nil {
		t.Error("unknown kind must error")
	}
}

func TestBuildTrafficRunsEndToEnd(t *testing.T) {
	cfg := ppsim.Config{N: 8, K: 4, RPrime: 2, Algorithm: ppsim.Algorithm{Name: "rr"}}
	src, err := buildTraffic(cfg, "steering", 0.5, 1, 500)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ppsim.Run(cfg, src, ppsim.Options{Horizon: 4000, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.MaxRQD < 7 {
		t.Errorf("steering traffic through the CLI path should concentrate: RQD %d", res.Report.MaxRQD)
	}
}

// TestValidateStride pins the parse-time rejection of coercible strides:
// the series layer silently treats stride < 1 as 1, so the CLI must refuse
// them before a run starts.
func TestValidateStride(t *testing.T) {
	for _, bad := range []int64{0, -1, -64} {
		if err := validateFlags(bad, 5000, 0.6); err == nil {
			t.Errorf("stride %d must be rejected", bad)
		}
	}
	for _, good := range []int64{1, 7, 1 << 20} {
		if err := validateFlags(good, 5000, 0.6); err != nil {
			t.Errorf("stride %d rejected: %v", good, err)
		}
	}
}

// TestValidateFlagsRejectsLoadAndSlots: a -load outside [0,1] used to reach
// traffic.NewBernoulli's panic, and -slots < 1 silently ran zero slots.
func TestValidateFlagsRejectsLoadAndSlots(t *testing.T) {
	for _, bad := range []float64{2, -0.1, 1.0001, math.NaN()} {
		if err := validateFlags(1, 5000, bad); err == nil {
			t.Errorf("load %v must be rejected", bad)
		}
	}
	for _, bad := range []int64{0, -5} {
		if err := validateFlags(1, bad, 0.6); err == nil {
			t.Errorf("slots %d must be rejected", bad)
		}
	}
	for _, good := range []float64{0, 0.6, 1} {
		if err := validateFlags(1, 1, good); err != nil {
			t.Errorf("load %v rejected: %v", good, err)
		}
	}
}
