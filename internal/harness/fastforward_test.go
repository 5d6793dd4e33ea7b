package harness

import (
	"fmt"
	"reflect"
	"testing"

	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/fabric"
	"ppsim/internal/faults"
	"ppsim/internal/obs"
	"ppsim/internal/traffic"
)

// matrixAlgs mirrors the public registry (algorithms.go) so the equivalence
// matrices cover every demultiplexor the repo ships, not just round-robin.
var matrixAlgs = []struct {
	name string
	mk   func(e demux.Env) (demux.Algorithm, error)
}{
	{"rr", func(e demux.Env) (demux.Algorithm, error) { return demux.NewRoundRobin(e, demux.PerInput) }},
	{"perflow-rr", func(e demux.Env) (demux.Algorithm, error) { return demux.NewRoundRobin(e, demux.PerFlow) }},
	{"partition", func(e demux.Env) (demux.Algorithm, error) { return demux.NewStaticPartition(e, 2) }},
	{"random", func(e demux.Env) (demux.Algorithm, error) { return demux.NewRandom(e, 7) }},
	{"cpa", func(e demux.Env) (demux.Algorithm, error) { return demux.NewCPA(e, demux.MinAvail) }},
	{"cpa-rotate", func(e demux.Env) (demux.Algorithm, error) { return demux.NewCPA(e, demux.RotateTie) }},
	{"cpa-sets", func(e demux.Env) (demux.Algorithm, error) { return demux.NewCPASets(e) }},
	{"stale-cpa", func(e demux.Env) (demux.Algorithm, error) { return demux.NewStaleCPA(e, 4) }},
	{"stale-cpa-randtie", func(e demux.Env) (demux.Algorithm, error) { return demux.NewStaleCPARandomTie(e, 4, 7) }},
	{"buffered-cpa", func(e demux.Env) (demux.Algorithm, error) { return demux.NewBufferedCPA(e, 4, demux.MinAvail) }},
	{"buffered-rr", func(e demux.Env) (demux.Algorithm, error) { return demux.NewBufferedRR(e, -1) }},
	{"ftd", func(e demux.Env) (demux.Algorithm, error) { return demux.NewFTD(e, 2) }},
	{"least-loaded", func(e demux.Env) (demux.Algorithm, error) { return demux.NewLocalLeastLoaded(e) }},
}

// engineVariant is one non-oracle core an equivalence matrix checks
// against a forced-stepped run.
type engineVariant struct {
	name string
	eng  Engine
	ff   bool
}

// engineVariants are the non-oracle cores: quiescence fast-forward, the
// event-driven core, and whatever EngineAuto selects.
var engineVariants = []engineVariant{
	{"fastforward", EngineStepped, true},
	{"event", EngineEvent, false},
	{"auto", EngineAuto, false},
}

// ffShapes are the traffic shapes of the fast-forward equivalence matrix:
// saturated uniform traffic (no quiescent interval ever — fast-forward must
// be a perfect no-op), sparse bursty traffic (long idle gaps — the payoff
// case), and full-rate adversarial permutation traffic (quiesces only in the
// tail drain, where the event core's sparse sweep meets heavy backlogs).
var ffShapes = []struct {
	name    string
	horizon cell.Time
	mk      func(n int, horizon cell.Time) traffic.Source
}{
	{"uniform", 256, func(n int, h cell.Time) traffic.Source {
		return traffic.NewBernoulli(n, 0.6, h, 11)
	}},
	{"sparse", 384, func(n int, h cell.Time) traffic.Source {
		src, err := traffic.NewOnOff(n, 4, 96, h, 5)
		if err != nil {
			panic(err)
		}
		return src
	}},
	{"adversarial", 192, func(n int, h cell.Time) traffic.Source {
		perm := make([]cell.Port, n)
		for i := range perm {
			perm[i] = cell.Port(n - 1 - i)
		}
		src, err := traffic.NewPermutation(perm, h)
		if err != nil {
			panic(err)
		}
		return src
	}},
}

// stripEngine zeroes the engine-metadata fields so equivalence tests can
// DeepEqual Results produced by different engines: the measurements must be
// bit-identical, while the record of which core ran intentionally differs.
func stripEngine(r Result) Result {
	r.Engine, r.EngineReason = "", ""
	return r
}

// TestEngineEquivalenceMatrix is the bit-identity contract of every
// slot-execution core: for every registered algorithm, traffic shape and
// fault schedule (none, and an outage straddling idle gaps under DropCount),
// the fast-forward, event-driven and auto-selected engines must produce
// Results deeply equal to the forced-stepped oracle — decimated series (ring
// state included, since DeepEqual follows the Series pointers into their
// unexported fields), drop counters, RQD/RDJ statistics, burstiness,
// utilization, everything except the Engine/EngineReason record itself.
// The w0 cells run the variants one after another; the w4 cells run four at
// once (see matchSteppedConcurrently).
// Stale-information algorithms exercise the capability gates: they degrade
// (recording why) and must still match.
func TestEngineEquivalenceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full equivalence matrix skipped in -short mode")
	}
	const n = 8
	cfg := fabric.Config{N: n, K: 4, RPrime: 2, BufferCap: -1, CheckInvariants: true}
	schedules := []struct {
		name  string
		mk    func() *faults.Schedule
		polcy faults.Policy
	}{
		{"nofaults", func() *faults.Schedule { return nil }, faults.Abort},
		{"outage", func() *faults.Schedule {
			// Fail and recover land mid-run; with the sparse shape both
			// events fall inside idle gaps, so the jump must truncate at
			// them for the drop accounting to stay identical.
			return faults.NewSchedule().Outage(1, 100, 160)
		}, faults.DropCount},
	}
	var elidedFF, elidedEvent cell.Time
	eventRuns, fallbacks := 0, 0
	for _, alg := range matrixAlgs {
		for _, shape := range ffShapes {
			for _, w := range []int{0, 4} {
				for _, sched := range schedules {
					t.Run(fmt.Sprintf("%s/%s/w%d/%s", alg.name, shape.name, w, sched.name), func(t *testing.T) {
						run := func(eng Engine, ff bool) Result {
							opts := Options{
								Validate:    true,
								Utilization: true,
								Faults:      sched.mk(),
								FaultPolicy: sched.polcy,
								Engine:      eng,
								FastForward: ff,
								Probes:      obs.StandardProbes(n, cfg.K, 3, 16),
							}
							// The elision hooks add into shared totals, so only
							// the sequential w0 runs carry them.
							if shape.name == "sparse" && w == 0 {
								switch {
								case ff:
									opts.OnFastForward = func(from, to cell.Time) { elidedFF += to - from }
								case eng == EngineEvent:
									opts.OnFastForward = func(from, to cell.Time) { elidedEvent += to - from }
								}
							}
							res, err := Run(cfg, alg.mk, shape.mk(n, shape.horizon), opts)
							if err != nil {
								t.Errorf("engine=%v ff=%v: %v", eng, ff, err)
							}
							return res
						}
						stepped := run(EngineStepped, false)
						if stepped.Report.Cells == 0 {
							t.Fatal("empty stepped run")
						}
						if stepped.Engine != "stepped" || stepped.EngineReason != "" {
							t.Fatalf("forced stepped run recorded engine %q (%q)", stepped.Engine, stepped.EngineReason)
						}
						if w > 0 {
							matchSteppedConcurrently(t, stepped, w, engineVariants, run)
							return
						}
						var event Result
						for _, v := range engineVariants {
							res := run(v.eng, v.ff)
							if !reflect.DeepEqual(stripEngine(stepped), stripEngine(res)) {
								t.Errorf("%s result diverges from stepped\nstepped: %+v\n%s: %+v", v.name, stepped, v.name, res)
							}
							switch {
							case v.eng == EngineEvent:
								event = res
								if res.Engine == "event" {
									eventRuns++
									if res.EngineReason != "" {
										t.Errorf("event run carries a degradation reason: %q", res.EngineReason)
									}
								} else {
									fallbacks++
									if res.Engine != "stepped" || res.EngineReason == "" {
										t.Errorf("event request degraded to %q (%q), want stepped with a reason", res.Engine, res.EngineReason)
									}
								}
							case v.eng == EngineAuto:
								// Auto is the event core whenever the run qualifies
								// and the stepped core otherwise.
								if res.Engine != event.Engine || res.EngineReason != event.EngineReason {
									t.Errorf("auto ran %q (%q), event request ran %q (%q)",
										res.Engine, res.EngineReason, event.Engine, event.EngineReason)
								}
							}
						}
					})
				}
			}
		}
	}
	if elidedFF == 0 {
		t.Error("sparse shape elided no slots under fast-forward: the elision path was never exercised")
	}
	if elidedEvent == 0 {
		t.Error("sparse shape elided no slots under the event core: the quiet jump was never exercised")
	}
	if eventRuns == 0 {
		t.Error("no run used the event core")
	}
	if fallbacks == 0 {
		t.Error("no event request degraded: the capability gates were never exercised")
	}
}

// slotCounter counts the demux Slot calls of a run, forwarding the
// IdleInvariant certification so engine selection is unchanged.
type slotCounter struct {
	demux.Algorithm
	calls int
}

func (c *slotCounter) Slot(t cell.Time, arrivals []cell.Cell) ([]demux.Send, error) {
	c.calls++
	return c.Algorithm.Slot(t, arrivals)
}

func (c *slotCounter) IdleInvariant() bool {
	ii, ok := c.Algorithm.(demux.IdleInvariant)
	return ok && ii.IdleInvariant()
}

// TestFastForwardIsSteppedPlusIdleJumps pins the fast-forward contract:
// fast-forward is the stepped referee plus idle jumps, so every slot it does
// not jump over — the tail-drain slots after each burst included — runs the
// referee Step and calls the demux. Its Slot calls must therefore equal the
// stepped run's minus the slots OnFastForward reports elided, under both
// spellings of the request.
func TestFastForwardIsSteppedPlusIdleJumps(t *testing.T) {
	const n = 8
	cfg := fabric.Config{N: n, K: 4, RPrime: 2, CheckInvariants: true}
	run := func(opts Options) (Result, int) {
		src, err := traffic.NewOnOff(n, 4, 96, 384, 5)
		if err != nil {
			t.Fatal(err)
		}
		var c *slotCounter
		mk := func(e demux.Env) (demux.Algorithm, error) {
			a, err := rrFactory(e)
			c = &slotCounter{Algorithm: a}
			return c, err
		}
		res, err := Run(cfg, mk, src, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res, c.calls
	}
	stepped, steppedCalls := run(Options{Engine: EngineStepped})
	if steppedCalls != int(stepped.Slots) {
		t.Fatalf("stepped run made %d Slot calls over %d slots", steppedCalls, stepped.Slots)
	}
	for _, opts := range []Options{{Engine: EngineFastForward}, {Engine: EngineStepped, FastForward: true}} {
		var elided cell.Time
		opts.OnFastForward = func(from, to cell.Time) { elided += to - from }
		ff, ffCalls := run(opts)
		if ff.Engine != "fastforward" {
			t.Fatalf("fast-forward request ran %q (%q)", ff.Engine, ff.EngineReason)
		}
		if elided == 0 {
			t.Fatal("sparse workload elided no slots")
		}
		if want := steppedCalls - int(elided); ffCalls != want {
			t.Errorf("fast-forward made %d Slot calls, want stepped %d - elided %d = %d",
				ffCalls, steppedCalls, elided, want)
		}
		if !reflect.DeepEqual(stripEngine(stepped), stripEngine(ff)) {
			t.Errorf("fast-forward result diverges from stepped\nstepped: %+v\nff:      %+v", stepped, ff)
		}
	}
}

// TestFastForwardSlotAllocFree pins the elided-interval path at zero heap
// allocations per interval, the fast-forward analogue of
// TestSteadyStateSlotAllocFree: one closed-form probe synthesis over a
// 64-slot span (rings warmed to capacity so ObserveSpan runs its overwrite
// arithmetic), one executed slot of the drained fabric through the real
// per-slot method, and one lookahead query plus its consuming Arrivals call
// on an RNG-backed source.
func TestFastForwardSlotAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations; guard only meaningful on plain builds")
	}
	const warm = 512
	cfg := benchCfg()
	d := newSlotDriver(t, cfg, traffic.NewBernoulli(cfg.N, 0.6, warm, 1),
		Options{Engine: EngineFastForward, Probes: obs.StandardProbes(cfg.N, cfg.K, 4, 32)})
	var slot cell.Time
	step := stepper(t, d, &slot)
	for slot < warm || d.pps.Backlog() > 0 || d.sh.Backlog() > 0 {
		step()
	}
	// Warm every ring past capacity (stride 4 x cap 32 < 192 slots) so the
	// measured spans exercise the steady-state overwrite path, not append
	// growth.
	sampleIdleSpan(d.opts.Probes, d.view, slot, slot+192)
	slot += 192

	onoff, err := traffic.NewOnOff(cfg.N, 4, 64, cell.None, 3)
	if err != nil {
		t.Fatal(err)
	}
	var look traffic.Lookahead = onoff
	var buf []traffic.Arrival
	after := cell.Time(-1)
	// Warm the lookahead scan buffers (pend and the consumer slice) across
	// enough bursts to reach their steady-state capacities.
	for i := 0; i < 128; i++ {
		na := look.NextArrival(after)
		buf = onoff.Arrivals(na, buf[:0])
		after = na
	}

	allocs := testing.AllocsPerRun(64, func() {
		sampleIdleSpan(d.opts.Probes, d.view, slot, slot+64)
		slot += 64
		step()
		na := look.NextArrival(after)
		buf = onoff.Arrivals(na, buf[:0])
		after = na
	})
	if allocs != 0 {
		t.Errorf("elided interval allocates: %.2f allocs/interval, want 0", allocs)
	}
}
