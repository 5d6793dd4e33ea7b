package main

import (
	"math"
	"testing"
)

func TestRunAllTrafficKinds(t *testing.T) {
	for _, kind := range []string{"steering", "concentration", "bernoulli", "flood"} {
		if err := run(16, 4, 2, "rr", 4, kind, 0.5, 200, 40, 1); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
	}
}

func TestRunAllAlgorithms(t *testing.T) {
	for _, alg := range []string{"rr", "perflow-rr", "cpa", "stale-cpa", "random", "least-loaded"} {
		if err := run(8, 4, 2, alg, 2, "concentration", 0.5, 0, 40, 1); err != nil {
			t.Errorf("%s: %v", alg, err)
		}
	}
}

func TestRunRejectsUnknown(t *testing.T) {
	if err := run(8, 4, 2, "bogus", 2, "concentration", 0.5, 0, 40, 1); err == nil {
		t.Error("unknown algorithm must error")
	}
	if err := run(8, 4, 2, "rr", 2, "bogus", 0.5, 0, 40, 1); err == nil {
		t.Error("unknown traffic must error")
	}
	for _, width := range []int{0, -3} {
		if err := run(8, 4, 2, "rr", 2, "concentration", 0.5, 0, width, 1); err == nil {
			t.Errorf("width %d must error", width)
		}
	}
}

func TestValidateLoad(t *testing.T) {
	for _, bad := range []float64{2, -0.5, math.NaN()} {
		if err := validateLoad(bad); err == nil {
			t.Errorf("load %v must be rejected", bad)
		}
	}
	for _, good := range []float64{0, 0.6, 1} {
		if err := validateLoad(good); err != nil {
			t.Errorf("load %v rejected: %v", good, err)
		}
	}
}

func TestPickAlgCoversRegistry(t *testing.T) {
	if _, err := pickAlg("stale-cpa", 3, 1); err != nil {
		t.Error(err)
	}
	if _, err := pickAlg("nope", 0, 0); err == nil {
		t.Error("unknown algorithm must error")
	}
}
