package harness

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/fabric"
	"ppsim/internal/faults"
	"ppsim/internal/obs"
	"ppsim/internal/traffic"
)

// faultCases are the degraded-mode scenarios the equivalence matrix runs:
// a plane dead from before slot 0, a mid-run transient outage, and both at
// once with the pre-failed plane recovering mid-run (the schedule's leading
// Recover un-fails it).
var faultCases = []struct {
	name  string
	fail  []cell.Plane
	sched func() *faults.Schedule
}{
	{"prefailed", []cell.Plane{3}, nil},
	{"outage", nil, func() *faults.Schedule {
		return faults.NewSchedule().Outage(0, 40, 120)
	}},
	{"prefailed+outage", []cell.Plane{3}, func() *faults.Schedule {
		return faults.NewSchedule().RecoverAt(3, 64).Outage(0, 40, 120)
	}},
}

// TestParallelMatchesSerialFaults extends the parallel-runs matrix to every
// fault shape: with a plane dead from slot 0, a mid-run outage, or both,
// under the DropCount policy, every algorithm's fast-forward, event-driven
// and auto runs, one (w1) or four (w4) at once, must be deeply equal to the
// serial forced-stepped run — drop totals and per-plane/per-input breakdowns
// included.
func TestParallelMatchesSerialFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("fault equivalence matrix skipped in -short mode")
	}
	const n = 16
	horizon := cell.Time(192)
	cfg := fabric.Config{N: n, K: 4, RPrime: 2, BufferCap: -1, CheckInvariants: true}
	for _, fc := range faultCases {
		for _, alg := range matrixAlgs {
			run := func(eng Engine, ff bool) Result {
				src := traffic.NewBernoulli(n, 0.6, horizon, 11)
				opts := Options{
					Validate: true, Utilization: true, Engine: eng, FastForward: ff,
					FailPlanes: fc.fail, FaultPolicy: faults.DropCount,
				}
				if fc.sched != nil {
					opts.Faults = fc.sched()
				}
				res, err := Run(cfg, alg.mk, src, opts)
				if err != nil {
					t.Errorf("%s/%s engine=%v ff=%v: %v", fc.name, alg.name, eng, ff, err)
				}
				return res
			}
			serial := run(EngineStepped, false)
			if serial.Report.Cells == 0 {
				t.Fatalf("%s/%s: empty serial run", fc.name, alg.name)
			}
			if serial.Drops == 0 {
				t.Fatalf("%s/%s: degraded run recorded no drops", fc.name, alg.name)
			}
			for _, w := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/w%d", fc.name, alg.name, w), func(t *testing.T) {
					matchSteppedConcurrently(t, serial, w, engineVariants, run)
				})
			}
		}
	}
}

// TestFaultAwareMatchesSerial runs the faultaware wrapper through a
// degraded scenario on every engine, four runs at once: masking changes
// which planes the inner algorithm sees, and that masked view must also be
// deterministic.
func TestFaultAwareMatchesSerial(t *testing.T) {
	const n = 16
	horizon := cell.Time(192)
	cfg := fabric.Config{N: n, K: 4, RPrime: 2, BufferCap: -1, CheckInvariants: true}
	mk := func(e demux.Env) (demux.Algorithm, error) {
		return demux.NewFaultAware(e, func(e demux.Env) (demux.Algorithm, error) {
			return demux.NewRoundRobin(e, demux.PerInput)
		})
	}
	run := func(eng Engine, ff bool) Result {
		src := traffic.NewBernoulli(n, 0.6, horizon, 11)
		res, err := Run(cfg, mk, src, Options{
			Validate: true, Utilization: true, Engine: eng, FastForward: ff,
			Faults:      faults.NewSchedule().Outage(0, 40, 120),
			FaultPolicy: faults.DropCount,
		})
		if err != nil {
			t.Errorf("engine=%v ff=%v: %v", eng, ff, err)
		}
		return res
	}
	stepped := run(EngineStepped, false)
	if stepped.AlgorithmName != "faultaware(rr)" {
		t.Fatalf("AlgorithmName = %q, want faultaware(rr)", stepped.AlgorithmName)
	}
	// Masking routes around the outage, so only plane 0's backlog at the
	// failure instant can drop — never a fresh dispatch.
	if stepped.Drops > uint64(stepped.Report.Cells/10) {
		t.Errorf("faultaware drops = %d of %d cells; masking should prevent dead-plane dispatches",
			stepped.Drops, stepped.Report.Cells)
	}
	matchSteppedConcurrently(t, stepped, 4, engineVariants, run)
}

// TestAbortEmptyScheduleInert is the golden no-regression contract: the
// Abort policy with an empty schedule must leave every algorithm's Result
// bit-identical to a run with no fault configuration at all (no new code
// executes on the hot path, so nothing can shift).
func TestAbortEmptyScheduleInert(t *testing.T) {
	const n = 8
	horizon := cell.Time(128)
	cfg := fabric.Config{N: n, K: 4, RPrime: 2, BufferCap: -1, CheckInvariants: true}
	for _, alg := range matrixAlgs {
		run := func(opts Options) Result {
			src := traffic.NewBernoulli(n, 0.6, horizon, 11)
			res, err := Run(cfg, alg.mk, src, opts)
			if err != nil {
				t.Fatalf("%s: %v", alg.name, err)
			}
			return res
		}
		bare := run(Options{Validate: true, Utilization: true})
		configured := run(Options{
			Validate: true, Utilization: true,
			Faults:      faults.NewSchedule(),
			FaultPolicy: faults.Abort,
		})
		if !reflect.DeepEqual(bare, configured) {
			t.Errorf("%s: Abort + empty schedule perturbs the run\nbare:       %+v\nconfigured: %+v",
				alg.name, bare, configured)
		}
	}
}

// evDropCounter counts EvDrop events off the tracer stream.
type evDropCounter struct{ n uint64 }

func (c *evDropCounter) Emit(ev obs.Event) {
	if ev.Kind == obs.EvDrop {
		c.n++
	}
}

// TestDropsMatchTracerEvDrops ties the three drop ledgers together: the
// tracer's EvDrop stream, Result.Drops, and the per-plane/per-input
// breakdowns must all agree — and an untraced run, which auto-selects the
// event core, must report the same totals as the traced stepped run.
func TestDropsMatchTracerEvDrops(t *testing.T) {
	const n = 16
	horizon := cell.Time(192)
	cfg := fabric.Config{N: n, K: 4, RPrime: 2, BufferCap: -1, CheckInvariants: true}
	sched := func() *faults.Schedule { return faults.NewSchedule().Outage(1, 30, 110) }
	run := func(sink obs.Sink) Result {
		src := traffic.NewBernoulli(n, 0.6, horizon, 11)
		opts := Options{
			Faults:      sched(),
			FaultPolicy: faults.DropCount,
		}
		if sink != nil {
			opts.Tracer = obs.NewTracer(sink)
		}
		res, err := Run(cfg, rrFactory, src, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	counter := &evDropCounter{}
	traced := run(counter)
	if traced.Drops == 0 {
		t.Fatal("outage run recorded no drops")
	}
	if counter.n != traced.Drops {
		t.Errorf("tracer saw %d EvDrop events, Result.Drops = %d", counter.n, traced.Drops)
	}
	var perPlane, perInput uint64
	for _, d := range traced.Report.DropsPerPlane {
		perPlane += d
	}
	for _, d := range traced.Report.DropsPerInput {
		perInput += d
	}
	if perPlane != traced.Drops || perInput != traced.Drops {
		t.Errorf("drop breakdowns disagree: perPlane=%d perInput=%d total=%d", perPlane, perInput, traced.Drops)
	}
	if traced.Engine != "stepped" {
		t.Errorf("traced run used the %s core, want stepped", traced.Engine)
	}
	untraced := run(nil)
	if untraced.Engine != "event" {
		t.Errorf("untraced run used the %s core, want event", untraced.Engine)
	}
	if untraced.Drops != traced.Drops {
		t.Errorf("untraced run drops = %d, traced stepped = %d", untraced.Drops, traced.Drops)
	}
}

// TestFailPlanesDeduped: duplicate IDs in FailPlanes apply once and leave
// the Result identical to the deduplicated list.
func TestFailPlanesDeduped(t *testing.T) {
	const n = 8
	horizon := cell.Time(96)
	cfg := fabric.Config{N: n, K: 4, RPrime: 2, CheckInvariants: true}
	run := func(planes []cell.Plane) Result {
		src := traffic.NewBernoulli(n, 0.5, horizon, 3)
		res, err := Run(cfg, rrFactory, src, Options{
			FailPlanes: planes, FaultPolicy: faults.DropCount,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	once := run([]cell.Plane{2})
	twice := run([]cell.Plane{2, 2, 2})
	if !reflect.DeepEqual(once, twice) {
		t.Errorf("duplicate FailPlanes changed the run\nonce:  %+v\ntwice: %+v", once, twice)
	}
}

// TestFailPlanesConsolidatedError: every out-of-range ID is reported in one
// error, before any plane is failed.
func TestFailPlanesConsolidatedError(t *testing.T) {
	cfg := fabric.Config{N: 4, K: 4, RPrime: 2}
	src := traffic.NewBernoulli(4, 0.5, 16, 1)
	_, err := Run(cfg, rrFactory, src, Options{
		FailPlanes: []cell.Plane{1, 9, -1, 2, 17},
	})
	if err == nil {
		t.Fatal("out-of-range FailPlanes accepted")
	}
	for _, want := range []string{"9", "-1", "17", "0..3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestFaultSlotAllocFree extends the allocation guard to degraded runs:
// once a DropCount schedule's events have all fired (drops recorded, plane
// recovered), the steady-state slot must still not touch the heap — the
// fault runtime's exhausted cursor is one bounds check, and every drop-side
// structure (gap heaps, skip sets, drop counters) has reached its
// steady-state footprint during warm-up.
func TestFaultSlotAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations; guard only meaningful on plain builds")
	}
	const warm, window = 4096, 512
	horizon := cell.Time(warm + window + 16)
	cfg := benchCfg()
	cfg.Faults = faults.NewSchedule().Outage(0, 100, 2000)
	cfg.FaultPolicy = faults.DropCount
	d := newSlotDriver(t, cfg, traffic.NewBernoulli(cfg.N, 0.6, horizon, 1), Options{Engine: EngineStepped})
	d.rec.Reserve(cfg.N * int(horizon))
	var slot cell.Time
	step := stepper(t, d, &slot)
	for slot < warm {
		step()
	}
	if d.rec.Drops() == 0 {
		t.Fatal("warm-up outage recorded no drops")
	}
	allocs := testing.AllocsPerRun(window, step)
	if allocs != 0 {
		t.Errorf("degraded steady-state slot allocates: %.2f allocs/slot, want 0", allocs)
	}
}
