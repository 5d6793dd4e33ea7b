package harness

import (
	"testing"
	"time"

	"ppsim/internal/cell"
	"ppsim/internal/fabric"
	"ppsim/internal/obs"
	"ppsim/internal/traffic"
)

// benchCfg is the hot-loop workload: checks off (the throughput
// configuration), moderate load, fixed seed so both variants run identical
// traffic.
func benchCfg() fabric.Config {
	return fabric.Config{N: 16, K: 8, RPrime: 2, CheckInvariants: false}
}

func benchRun(b testing.TB, opts Options) {
	src := traffic.NewBernoulli(16, 0.6, 2000, 1)
	res, err := Run(benchCfg(), rrFactory, src, opts)
	if err != nil {
		b.Fatal(err)
	}
	if res.Report.Cells == 0 {
		b.Fatal("empty run")
	}
}

// BenchmarkHarnessBaseline is the uninstrumented hot path: invariants off,
// no tracer, no probes, no utilization scan.
func BenchmarkHarnessBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchRun(b, Options{})
	}
}

// BenchmarkHarnessIdleInstrumentation is the same run with the
// instrumentation layer attached but off: a null-sink tracer (a cached
// single branch per fabric site) and no probes. The guard test asserts it
// stays within a few percent of the baseline.
func BenchmarkHarnessIdleInstrumentation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchRun(b, Options{Tracer: obs.NewTracer(obs.NullSink{})})
	}
}

// BenchmarkHarnessActiveProbes prices the full standard probe set sampling
// every slot — the cost ceiling, recorded so future PRs see the perf
// trajectory (CI runs these with -benchtime=1x, non-gating).
func BenchmarkHarnessActiveProbes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchRun(b, Options{Probes: obs.StandardProbes(16, 8, 1, 1<<15)})
	}
}

// BenchmarkHarnessActiveTracer prices a live ring-sink tracer.
func BenchmarkHarnessActiveTracer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchRun(b, Options{Tracer: obs.NewTracer(obs.NewRingSink(1 << 12))})
	}
}

// newSlotDriver builds a driver over cfg with Drive's own constructor,
// so tests and benchmarks can meter the real per-slot method (driver.step)
// one slot at a time — Drive itself only exposes whole runs.
func newSlotDriver(tb testing.TB, cfg fabric.Config, src traffic.Source, opts Options) *driver {
	pps, err := fabric.New(cfg, rrFactory)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := newDriver(pps, src, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// stepper returns a closure that executes the driver's next slot, counting
// from *slot.
func stepper(tb testing.TB, d *driver, slot *cell.Time) func() {
	return func() {
		if err := d.step(*slot); err != nil {
			tb.Fatal(err)
		}
		*slot++
	}
}

// TestSteadyStateSlotAllocFree is the allocation guard: with checks,
// tracing and probes all disabled, an executed slot of the stepped and the
// event core must not touch the heap. The warm-up drives every lazily-built
// structure (flow maps, ring capacities, per-flow heaps, arrival slabs) to
// its steady-state footprint, and Recorder.Reserve removes the amortized
// growth of the per-cell tables, so any allocation in the measured window
// is a regression on the hot path. Percentile recording (the recorder's
// streaming delay histograms are always on) and the live-telemetry tick +
// delta-flush path are included: the measured window straddles a flush
// stride, so the O(buckets) fold is exercised too.
func TestSteadyStateSlotAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations; guard only meaningful on plain builds")
	}
	const warm, window = 4096, 512
	horizon := cell.Time(warm + window + 16)
	for _, eng := range []Engine{EngineStepped, EngineEvent} {
		d := newSlotDriver(t, benchCfg(), traffic.NewBernoulli(benchCfg().N, 0.6, horizon, 1),
			Options{Engine: eng, Telemetry: obs.NewTelemetry()})
		d.rec.Reserve(benchCfg().N * int(horizon))
		var slot cell.Time
		step := stepper(t, d, &slot)
		for slot < warm {
			step()
		}
		allocs := testing.AllocsPerRun(window, step)
		if allocs != 0 {
			t.Errorf("%v steady-state slot allocates: %.2f allocs/slot, want 0", eng, allocs)
		}
	}
}

// BenchmarkHarnessSteadyStateSlot prices one steady-state slot of the
// stepped core (allocs/op should read 0 — the guard test above enforces it).
func BenchmarkHarnessSteadyStateSlot(b *testing.B) {
	horizon := cell.Time(b.N + 4096 + 16)
	d := newSlotDriver(b, benchCfg(), traffic.NewBernoulli(benchCfg().N, 0.6, horizon, 1), Options{Engine: EngineStepped})
	d.rec.Reserve(benchCfg().N * int(horizon))
	var slot cell.Time
	step := stepper(b, d, &slot)
	for slot < 4096 {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestIdleInstrumentationOverheadGuard asserts the instrumented-but-idle
// hot path stays close to the uninstrumented baseline. The design target
// is ~5%; the assertion allows 25% because CI timing noise on a ~10ms
// workload easily exceeds the real gap — the benchmarks above report the
// precise ratio. Min-of-rounds filters scheduler interference.
func TestIdleInstrumentationOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive guard skipped in -short mode")
	}
	measure := func(opts Options) time.Duration {
		start := time.Now()
		benchRun(t, opts)
		return time.Since(start)
	}
	idleOpts := func() Options { return Options{Tracer: obs.NewTracer(obs.NullSink{})} }
	// Warm up both paths once, then interleave rounds and keep the minima.
	measure(Options{})
	measure(idleOpts())
	base, idle := time.Duration(1<<62), time.Duration(1<<62)
	for round := 0; round < 5; round++ {
		if d := measure(Options{}); d < base {
			base = d
		}
		if d := measure(idleOpts()); d < idle {
			idle = d
		}
	}
	ratio := float64(idle) / float64(base)
	t.Logf("baseline=%v idle-instrumented=%v ratio=%.3f (target ~1.05)", base, idle, ratio)
	if ratio > 1.25 {
		t.Errorf("idle instrumentation overhead ratio %.3f exceeds guard threshold 1.25 (baseline %v, instrumented %v)",
			ratio, base, idle)
	}
}
