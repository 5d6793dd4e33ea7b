package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ppsim"
	"ppsim/internal/harness"
)

// small shrinks a workload to a few hundred milliseconds of work while
// keeping its shape: algorithm, engine, traffic kind and admission policy.
func small(w workload) workload {
	switch w.name {
	case "loaded-n1024":
		w.n, w.horizon = 64, 300
	case "sparse-long":
		w.n, w.horizon, w.maxSlots = 64, 40_000, 80_000
	case "stale-overload":
		w.n, w.horizon = 32, 600
	}
	return w
}

func TestTracedDriverMatchesPublicRun(t *testing.T) {
	for _, full := range workloads {
		w := small(full)
		t.Run(w.name, func(t *testing.T) {
			opts, err := w.options(harness.EngineAuto)
			if err != nil {
				t.Fatal(err)
			}
			src, err := w.source(w.n, w.horizon, 7)
			if err != nil {
				t.Fatal(err)
			}
			cfg := ppsim.Config{N: w.n, K: w.k, RPrime: w.rprime, Algorithm: ppsim.Algorithm{Name: w.alg, U: w.u}}
			want, err := ppsim.Run(cfg, src, opts)
			if err != nil {
				t.Fatal(err)
			}
			if want.Engine != w.engine {
				t.Fatalf("ppsim.Run engine %s, workload declares %s", want.Engine, w.engine)
			}
			for _, period := range []int64{1, 3} {
				tr, err := traceDrive(w, 7, opts, period)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(tr.res.Report, want.Report) {
					t.Errorf("period %d: traced Report differs from ppsim.Run:\n got %+v\nwant %+v", period, tr.res.Report, want.Report)
				}
				if tr.res.Slots != want.Slots || tr.res.Engine != want.Engine || tr.res.EngineReason != want.EngineReason {
					t.Errorf("period %d: traced slots/engine %d/%s (%q), ppsim.Run %d/%s (%q)", period,
						tr.res.Slots, tr.res.Engine, tr.res.EngineReason, want.Slots, want.Engine, want.EngineReason)
				}
				if tr.sp.departures != int64(want.Report.Admitted) || tr.sp.stamps != int64(want.Report.Admitted) {
					t.Errorf("period %d: %d departures, %d stamps, %d admitted", period, tr.sp.departures, tr.sp.stamps, want.Report.Admitted)
				}
			}
		})
	}
}

func TestLayerTimesSumToWall(t *testing.T) {
	w := small(workloads[0])
	opts, err := w.options(harness.EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := traceDrive(w, 3, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := layerMetrics([]tracedRun{tr}, calibrate(), []float64{float64(tr.wallNs)})
	sum := m["harness.self_share"]
	for _, name := range layerNames {
		sum += m[name+".share"]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("layer shares plus harness residual sum to %v, want 1", sum)
	}
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			t.Errorf("per-layer metric %s not computed", d.name)
		}
	}
}

// benchmarkJSON mirrors the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, benchmark prints %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %s %s %s, benchmark prints %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, benchmark prints %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %s %s %s, benchmark prints %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
}

func TestResultLineShape(t *testing.T) {
	vals := map[string]float64{}
	for i, d := range endToEnd {
		vals[d.name] = float64(i) + 0.5
	}
	line, err := resultLine(&checker{attempted: 3, failed: 1}, true, endToEnd, vals)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("result line is not JSON: %v\n%s", err, line)
	}
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	if len(keys) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Fatalf("result keys %v, want correct, attempted, failed, metrics", keys)
	}
	if string(got["correct"]) != "false" {
		t.Errorf("a failed run must not be correct: %s", got["correct"])
	}
	var metrics map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		if m, ok := metrics[d.name]; !ok || m.Unit != d.unit || m.Value != vals[d.name] {
			t.Errorf("metric %s = %+v, want %v %s", d.name, m, vals[d.name], d.unit)
		}
	}
	delete(vals, endToEnd[0].name)
	if _, err := resultLine(&checker{}, true, endToEnd, vals); err == nil {
		t.Error("a missing metric must be an error")
	}
}

func TestCommittedDigestsReproduce(t *testing.T) {
	f, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		wd, ok := f.Workloads[w.name]
		if !ok {
			t.Errorf("digests.json has no entry for %s", w.name)
			continue
		}
		if wd.DefaultSeed != w.defaultSeed || wd.HeldoutSeed != w.heldoutSeed {
			t.Errorf("%s: digests.json seeds %d/%d, workload %d/%d", w.name, wd.DefaultSeed, wd.HeldoutSeed, w.defaultSeed, w.heldoutSeed)
		}
		for _, s := range []int64{w.defaultSeed, w.heldoutSeed} {
			if wd.Digests[strconv.FormatInt(s, 10)] == "" {
				t.Errorf("%s: no digest for seed %d", w.name, s)
			}
		}
		if testing.Short() {
			continue
		}
		// The benchmark's own engine must reproduce the referee's digest.
		b, err := newBench(w, w.defaultSeed, os.Stderr)
		if err != nil {
			t.Fatal(err)
		}
		if !b.chk.known {
			t.Fatalf("%s: default seed has no committed digest", w.name)
		}
		if _, err := b.drive(); err != nil {
			t.Fatal(err)
		}
		if b.chk.failed != 0 {
			t.Errorf("%s: default-seed drive failed its output check", w.name)
		}
	}
}
