package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"ppsim"
)

func TestGenerateKinds(t *testing.T) {
	cases := []struct {
		kind      string
		wantCells bool
	}{
		{"steering", true},
		{"concentration", true},
		{"herding", true},
		{"bernoulli", true},
	}
	for _, tc := range cases {
		tr, err := generate(tc.kind, 8, 4, 2, "rr", 1, 200, 0.5)
		if err != nil {
			t.Errorf("%s: %v", tc.kind, err)
			continue
		}
		if tc.wantCells && tr.Count() == 0 {
			t.Errorf("%s produced an empty trace", tc.kind)
		}
	}
	if _, err := generate("bogus", 8, 4, 2, "rr", 1, 10, 0.5); err == nil {
		t.Error("unknown generator must error")
	}
}

func TestWriteAndStatsRoundTrip(t *testing.T) {
	tr, err := generate("concentration", 8, 0, 0, "", 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(tr, path); err != nil {
		t.Fatal(err)
	}
	// The file decodes back to an identical trace.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back := ppsim.NewTrace()
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if back.Count() != tr.Count() || back.End() != tr.End() {
		t.Errorf("round trip: %d/%d cells, %d/%d span", back.Count(), tr.Count(), back.End(), tr.End())
	}
	// printStats runs cleanly on the file.
	if err := printStats(path, 8); err != nil {
		t.Fatal(err)
	}
}

func TestRunTraceReplay(t *testing.T) {
	tr, err := generate("concentration", 8, 0, 0, "", 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "replay.json")
	if err := writeTrace(tr, path); err != nil {
		t.Fatal(err)
	}
	if err := runTrace(path, 8, 4, 2, "rr"); err != nil {
		t.Fatal(err)
	}
	if err := runTrace(path, 8, 4, 2, "no-such-alg"); err == nil {
		t.Error("unknown algorithm must error")
	}
	if err := runTrace("/nonexistent.json", 8, 4, 2, "rr"); err == nil {
		t.Error("missing file must error")
	}
}

func TestPrintStatsMissingFile(t *testing.T) {
	if err := printStats("/nonexistent/file.json", 4); err == nil {
		t.Error("missing file must error")
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
