// Package harness runs matched executions: one traffic source feeding both
// a PPS under test and the shadow reference switch, slot by slot, until both
// drain. It is the engine behind the public API, the experiment suite and
// the adversary's scratch simulations.
package harness

import (
	"fmt"
	"strings"

	"ppsim/internal/admission"
	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/fabric"
	"ppsim/internal/faults"
	"ppsim/internal/metrics"
	"ppsim/internal/obs"
	"ppsim/internal/shadow"
	"ppsim/internal/traffic"
)

// Options tunes a run.
type Options struct {
	// Horizon stops feeding arrivals at this slot even if the source is
	// unbounded; 0 means "trust the source's End()". A run with an
	// unbounded source and Horizon 0 is an error.
	Horizon cell.Time
	// MaxSlots aborts a run that fails to drain (default 1<<22).
	MaxSlots cell.Time
	// OnPPSDepart, if non-nil, observes every PPS departure (with all
	// stage stamps set).
	OnPPSDepart func(cell.Cell)
	// Validate measures the traffic's leaky-bucket burstiness during the
	// run (cheap; on by default in the public API).
	Validate bool
	// FailPlanes marks these planes failed before the first slot.
	// Duplicate IDs are applied once; out-of-range IDs error before the
	// run starts. Under the default Abort policy the run errors at the
	// first dispatch into a failed plane — the fault-tolerance experiments
	// use this to find which inputs a failure strands (Section 3 of the
	// paper); under FaultPolicy DropCount those dispatches become
	// accounted drops instead.
	FailPlanes []cell.Plane
	// Faults schedules mid-run plane fail/recover events (and optional
	// per-plane cell loss); nil injects nothing. Forwarded to
	// fabric.Config.Faults when the config leaves it nil.
	Faults *faults.Schedule
	// FaultPolicy decides what a dispatch into a failed plane means:
	// faults.Abort (default, the model's no-drop semantics) or
	// faults.DropCount (accounted losses, Result.Drops). Forwarded to
	// fabric.Config.FaultPolicy when the config leaves it Abort.
	FaultPolicy faults.Policy
	// Admission is the policy evaluated in front of the demux, in the
	// serial recorder-side arrival phase: every offered arrival is admitted
	// (stamped and fed to both switches), rejected by a token bucket, or —
	// under deadline-drop — expired. nil and the empty always-admit spec
	// are byte-identical to no admission at all. Deliveries that miss their
	// deadline under deadline-drop are reclassified as expired at egress
	// rather than intercepted in the mux stage, so every engine stays
	// bit-identical (DESIGN.md §14). The spec is validated before the run
	// starts.
	Admission *admission.Spec
	// Utilization computes Result.Utilization, the per-output busy
	// fractions. Opt-in: it is O(N) per run and most internal callers
	// never read it; the public ppsim.Run turns it on to keep its
	// historical default behavior.
	Utilization bool
	// Probes are sampled once per slot, after the mux phase, so their
	// series align with the paper's departure-time accounting (DESIGN.md
	// §7). Probes must not be shared between concurrent runs.
	Probes []obs.Probe
	// Tracer, if non-nil, receives the structured event stream (arrival,
	// dispatch, plane-enqueue, mux-pull, depart, constraint-violation)
	// from the fabric.
	Tracer *obs.Tracer
	// Metrics, if non-nil, accumulates cumulative run telemetry
	// (harness_* counters and histograms) at the end of the run. A single
	// registry may be shared across runs; it is concurrency-safe.
	Metrics *obs.Registry
	// Telemetry, if non-nil, receives live run state: per-slot gauges every
	// slot (atomic stores, allocation-free) and the delay-attribution
	// histograms at a coarse flush cadence, so external observers (ppsexp's
	// /telemetry endpoint) can snapshot a run mid-flight. When nil, the
	// process-global aggregator (obs.SetGlobalTelemetry) is used if one is
	// installed. A single Telemetry may be shared across concurrent runs.
	Telemetry *obs.Telemetry
	// Workers must be 0: Drive (and so Run) rejects any other value with
	// an error, so no caller silently loses the parallelism it asked for.
	//
	// Deprecated: the stage-parallel engine was removed; every run is
	// serial. For multi-core throughput run independent points in parallel
	// with ppsim.RunSweep.
	Workers int
	// Engine selects the slot-execution core (see the Engine constants).
	// The zero value, EngineAuto, runs the event-driven core whenever the
	// run qualifies and the stepped core otherwise; every choice is
	// bit-identical, and Result.Engine/Result.EngineReason record what
	// actually ran and why a request was degraded.
	Engine Engine
	// FastForward under EngineStepped requests EngineFastForward; it has no
	// effect under any other engine.
	//
	// Deprecated: use Engine: EngineFastForward.
	FastForward bool
	// OnFastForward, if non-nil, observes every idle jump as the half-open
	// elided interval [from, to). It is a callback rather than a Result
	// field so fast-forwarded and stepped runs of the same workload produce
	// deeply equal Results.
	OnFastForward func(from, to cell.Time)
}

// Result summarizes a matched execution.
type Result struct {
	Report metrics.Report
	// Burstiness is the measured leaky-bucket B of the offered traffic
	// (only if Options.Validate).
	Burstiness int64
	// PeakPlaneQueue is the largest per-output backlog in any plane.
	PeakPlaneQueue int
	// Slots is the number of slots until both switches drained.
	Slots cell.Time
	// Utilization is the per-output busy fraction between first and last
	// departure (only if Options.Utilization; the public ppsim.Run always
	// fills it).
	Utilization []float64
	// Series holds the time series sampled by Options.Probes, in probe
	// order; nil when no probes were attached.
	Series []*obs.Series
	// TraceEvents counts events emitted to Options.Tracer.
	TraceEvents uint64
	// AlgorithmName echoes the algorithm under test.
	AlgorithmName string
	// Drops is the number of cells lost to failed planes under the
	// DropCount fault policy (0 under Abort); Report.DropsPerPlane and
	// Report.DropsPerInput break it down.
	Drops uint64
	// Engine records the slot-execution core that actually ran: "stepped",
	// "fastforward" or "event". All cores produce identical measurements,
	// so tests comparing engines normalize these two fields away.
	Engine string
	// EngineReason is empty when the requested engine (or, under
	// EngineAuto, the event core) ran, and otherwise explains the
	// degradation — e.g. a tracer pinning the run to the stepped core, or a
	// stale-information algorithm that cannot certify idle elision. CLIs
	// surface it so users asking for elision learn they ran stepped.
	EngineReason string
	// Workers is always 0.
	//
	// Deprecated: the stage-parallel engine was removed; every run is serial.
	Workers int
	// ShardPorts is always nil.
	//
	// Deprecated: the stage-parallel engine was removed; every run is serial.
	ShardPorts []int
	// Goodput is delivered (matched) cells per slot over the whole run —
	// the throughput that survived admission, faults and deadlines.
	Goodput float64
	// OnTimeFraction mirrors Report.OnTimeFraction: deliveries that met
	// their deadline (no-deadline cells count as on time) over offered
	// arrivals. 1.0 for a clean full-delivery run.
	OnTimeFraction float64
}

// Run executes src through a fresh PPS built from cfg and factory, and
// through the shadow switch, until both drain.
func Run(cfg fabric.Config, factory func(demux.Env) (demux.Algorithm, error), src traffic.Source, opts Options) (Result, error) {
	if cfg.Faults == nil {
		cfg.Faults = opts.Faults
	}
	if cfg.FaultPolicy == faults.Abort {
		cfg.FaultPolicy = opts.FaultPolicy
	}
	pps, err := fabric.New(cfg, factory)
	if err != nil {
		return Result{}, err
	}
	// Deduplicate (Fail is idempotent, but double-failing silently hid
	// typos) and reject every out-of-range ID in one error, before any
	// plane is touched.
	if len(opts.FailPlanes) > 0 {
		seen := make(map[cell.Plane]bool, len(opts.FailPlanes))
		var uniq []cell.Plane
		var bad []string
		for _, k := range opts.FailPlanes {
			if seen[k] {
				continue
			}
			seen[k] = true
			if int(k) < 0 || int(k) >= cfg.K {
				bad = append(bad, fmt.Sprint(k))
				continue
			}
			uniq = append(uniq, k)
		}
		if len(bad) > 0 {
			return Result{}, fmt.Errorf("harness: cannot fail nonexistent plane(s) %s (planes are 0..%d)",
				strings.Join(bad, ", "), cfg.K-1)
		}
		for _, k := range uniq {
			pps.Plane(k).Fail()
		}
	}
	return Drive(pps, src, opts)
}

// telemetryFlushStride is how often (in slots) Drive folds the recorder's
// delay histograms into the live telemetry aggregator. Coarse on purpose:
// the flush takes the aggregator's mutex and walks every histogram bucket,
// so it must stay off the per-slot fast path; /telemetry snapshots are at
// most this many slots stale.
const telemetryFlushStride = 4096

// slotView adapts the matched execution for obs.Probe sampling. It is
// refreshed (slot and front-RQD) each slot and handed to every probe.
type slotView struct {
	pps   *fabric.PPS
	sh    *shadow.Switch
	rec   *metrics.Recorder
	slot  cell.Time
	rqd   cell.Time
	rqdOK bool
}

func (v *slotView) Slot() cell.Time           { return v.slot }
func (v *slotView) Ports() int                { return v.pps.Config().N }
func (v *slotView) Planes() int               { return v.pps.Config().K }
func (v *slotView) PlaneBacklog(k int) int    { return v.pps.Plane(cell.Plane(k)).Backlog() }
func (v *slotView) PlanePeak(k int) int       { return v.pps.Plane(cell.Plane(k)).PeakQueue() }
func (v *slotView) InputDepth(i int) int      { return v.pps.InputPending(cell.Port(i)) }
func (v *slotView) OutputBuffered(j int) int  { return v.pps.Output(cell.Port(j)).Buffered() }
func (v *slotView) OutputPulls(j int) int64   { return v.pps.OutputPulls(cell.Port(j)) }
func (v *slotView) DispatchedTo(k int) uint64 { return v.pps.DispatchedTo(cell.Plane(k)) }
func (v *slotView) PPSInFlight() int          { return v.pps.Backlog() }
func (v *slotView) ShadowInFlight() int       { return v.sh.Backlog() }
func (v *slotView) FrontRQD() (int64, bool)   { return int64(v.rqd), v.rqdOK }
func (v *slotView) LivePlanes() int           { return v.pps.LivePlanes() }
func (v *slotView) DroppedTotal() uint64      { return v.pps.Dropped() }
func (v *slotView) AdmittedTotal() uint64     { return v.rec.AdmittedTotal() }
func (v *slotView) RejectedTotal() uint64     { return v.rec.RejectedTotal() }
func (v *slotView) ExpiredTotal() uint64      { return v.rec.ExpiredTotal() }

// driver bundles the per-run state of Drive's slot loop and teardown: both
// switches, the stamper, the recorder, the probe view, the telemetry sinks
// and the reusable scratch buffers. newDriver builds it and resolves the
// engine; run executes it once.
type driver struct {
	pps     *fabric.PPS
	sh      *shadow.Switch
	opts    *Options
	end     cell.Time
	st      *cell.Stamper
	rec     *metrics.Recorder
	vd      *traffic.Validator
	probing bool
	view    *slotView
	tel     *obs.Telemetry
	telPrev *obs.DelaySet
	// feed serves the arrival phase: one slab of arrivals per span when the
	// source implements traffic.BatchSource, a per-slot pass-through
	// otherwise. Every engine (and the admission gate inside feedSlot)
	// consumes slots through it, and the idle-jump queries go through its
	// Lookahead view so slab state and quiescence queries stay interleaved
	// correctly.
	feed *traffic.SpanFeed
	// adm is the admission runtime, nil under always-admit (nil or empty
	// spec) — the gate in feedSlot then reduces to the bare counters, so a
	// run without admission is byte-identical to the pre-admission harness.
	adm *admission.Runtime

	// eng and reason are selectEngine's verdict. next, non-nil under the
	// fastforward and event cores, answers the idle jumps' "when is the
	// next arrival?" query.
	eng    Engine
	reason string
	next   *traffic.EventFeed

	deps, shDeps, cellsBuf []cell.Cell
	// executed counts executed (not elided) slots; it paces the telemetry
	// histogram flush.
	executed int64
	// slot is where the loop stopped: the first slot after both switches
	// drained, or MaxSlots.
	slot cell.Time
}

// feedSlot reads, validates, admits and stamps slot t's arrivals into the
// reusable cell buffer. The admission gate runs here — in the serial
// recorder-side arrival phase, before stamping — so rejected arrivals are
// never stamped: sequence numbers stay dense and the PPS, the shadow switch
// and every engine see the identical admitted stream. The validator observes
// the *offered* traffic (burstiness measures what was asked of the switch,
// not what the policy let through). Both switches copy cells into their own
// queues, so the scratch slice is safe to reuse across slots.
func (d *driver) feedSlot(t cell.Time) ([]cell.Cell, error) {
	cells := d.cellsBuf[:0]
	arrs := d.feed.SlotArrivals(t)
	if d.vd != nil {
		if err := d.vd.Observe(t, arrs); err != nil {
			return nil, err
		}
	}
	for _, a := range arrs {
		d.rec.OfferCell()
		if d.adm != nil {
			// Deadline expiry is checked before the token bucket: a cell
			// that is already late must not consume tokens a timely cell
			// could have used.
			if d.adm.Expired(t, a.Deadline) {
				d.rec.ExpireAtAdmission()
				continue
			}
			if !d.adm.Admit(t, a.In) {
				d.rec.RejectCell(a.In)
				continue
			}
		}
		d.rec.AdmitCell()
		c := d.st.Stamp(cell.Flow{In: a.In, Out: a.Out}, t)
		c.Deadline = a.Deadline
		cells = append(cells, c)
	}
	d.cellsBuf = cells
	return cells, nil
}

// recordDepartures feeds the slot's PPS departures and drops into the
// recorder (and the caller's observer). The recorder is fed in one order:
// PPS departures, drops, then shadow departures. Under deadline-drop
// admission a delivery that missed its deadline is reclassified here as expired — the lazy-egress design of
// DESIGN.md §14: the cell physically traversed the fabric (so the mux stage
// stays engine-identical), but it counts as dropped at resequencing, not as
// a delivery.
func (d *driver) recordDepartures() {
	for _, c := range d.deps {
		if d.adm != nil && d.adm.Expired(c.Depart, c.Deadline) {
			d.rec.PPSExpired(c)
			continue
		}
		d.rec.PPSDepart(c)
		if c.Deadline == 0 || c.Depart <= c.Deadline {
			d.rec.OnTimeCell()
		}
		if d.opts.OnPPSDepart != nil {
			d.opts.OnPPSDepart(c)
		}
	}
	for _, c := range d.pps.SlotDrops() {
		d.rec.PPSDrop(c)
	}
}

// sampleSlot samples every probe after the mux phase of slot t (all pulls
// and departures applied), so series align with departure-time accounting —
// see DESIGN.md §7.
func (d *driver) sampleSlot(t cell.Time) {
	d.view.slot = t
	d.view.rqd, d.view.rqdOK = 0, false
	for _, c := range d.deps {
		if q, ok := d.rec.RQD(c.Seq); ok && (!d.view.rqdOK || q > d.view.rqd) {
			d.view.rqd, d.view.rqdOK = q, true
		}
	}
	for _, pb := range d.opts.Probes {
		pb.Sample(d.view)
	}
}

// run is the slot loop of every core. Each executed slot goes through step;
// under the fastforward and event cores (d.next non-nil), a slot on which
// both switches are empty and no arrival or fault event is due starts an idle
// jump instead: nothing can move before the next such event, so the clock
// jumps there in one step (the source's next arrival, served by the memoized
// lookahead feed; the next fault due time; the horizon; or MaxSlots,
// whichever comes first) and the probe samples of the elided span are
// synthesized in closed form. Fast-forward is therefore the stepped referee
// plus idle jumps, and the event core differs from it only in EventStep.
// selectEngine guarantees the jump preconditions: no tracer, a Lookahead
// source, an IdleInvariant algorithm.
func (d *driver) run() error {
	pps, sh, opts, end := d.pps, d.sh, d.opts, d.end
	slot := cell.Time(0)
	for ; slot < opts.MaxSlots; slot++ {
		if slot >= end && pps.Drained() && sh.Drained() {
			break
		}
		if d.next != nil && pps.Backlog() == 0 && sh.Drained() {
			// The O(1) backlog counter makes this check free. slot < end
			// here — otherwise the loop would have terminated above — so
			// the feed query is within the monotone-consumption contract.
			na := d.next.Next(slot - 1)
			if na != cell.None && na >= end {
				na = cell.None // beyond the horizon: never fed
			}
			nf := pps.NextFaultSlot()
			if na != slot && nf != slot {
				until := opts.MaxSlots
				if end < until {
					until = end
				}
				if na != cell.None && na < until {
					until = na
				}
				if nf != cell.None && nf < until {
					until = nf
				}
				if d.probing {
					sampleIdleSpan(opts.Probes, d.view, slot, until)
				}
				if opts.OnFastForward != nil {
					opts.OnFastForward(slot, until)
				}
				slot = until - 1 // loop post-increment resumes at until
				continue
			}
		}
		if err := d.step(slot); err != nil {
			return err
		}
	}
	d.slot = slot
	return nil
}

// step executes slot t: arrivals, the PPS under test (fabric.EventStep on
// the event core, the referee Step otherwise), the shadow switch, departure
// accounting, probes and the telemetry tick.
func (d *driver) step(t cell.Time) error {
	cells := d.cellsBuf[:0]
	var err error
	if t < d.end {
		if cells, err = d.feedSlot(t); err != nil {
			return err
		}
	}
	if d.eng == EngineEvent {
		d.deps, err = d.pps.EventStep(t, cells, d.deps[:0])
	} else {
		d.deps, err = d.pps.Step(t, cells, d.deps[:0])
	}
	if err != nil {
		return err
	}
	d.recordDepartures()
	d.shDeps = d.sh.Step(t, cells, d.shDeps[:0])
	for _, c := range d.shDeps {
		d.rec.ShadowDepart(c)
	}
	if d.probing {
		d.sampleSlot(t)
	}
	if d.tel != nil {
		d.tel.Tick(int64(t), d.pps.Backlog(), d.rec.Matched(), d.rec.Drops(), d.rec.AdmittedTotal(), d.rec.RejectedTotal(), d.rec.ExpiredTotal())
		// The flush cadence counts executed slots, not clock slots: a
		// mostly-elided run would otherwise flush on almost every executed
		// slot (or never), defeating the coarse stride.
		if d.executed%telemetryFlushStride == 0 {
			d.tel.ObserveDelays(d.rec.Delays(), d.telPrev)
		}
		d.executed++
	}
	return nil
}

// newDriver validates the run, builds its per-run state and resolves the
// engine. On success the telemetry sink (if any) has seen RunStarted; the
// caller owes it RunFinished.
func newDriver(pps *fabric.PPS, src traffic.Source, opts Options) (*driver, error) {
	if s := pps.CurrentSlot(); s != -1 {
		return nil, fmt.Errorf("harness: fabric already driven through slot %d; build a fresh PPS per run", s)
	}
	if opts.Workers != 0 {
		return nil, fmt.Errorf("harness: Options.Workers = %d, but the stage-parallel engine was removed; leave it 0 (use ppsim.RunSweep for multi-core runs)", opts.Workers)
	}
	cfg := pps.Config()
	if opts.MaxSlots <= 0 {
		opts.MaxSlots = 1 << 22
	}
	end := src.End()
	if end == cell.None {
		if opts.Horizon <= 0 {
			return nil, fmt.Errorf("harness: unbounded source needs an explicit Horizon")
		}
		end = opts.Horizon
	} else if opts.Horizon > 0 && opts.Horizon < end {
		end = opts.Horizon
	}

	if opts.Tracer != nil {
		pps.SetTracer(opts.Tracer)
	}
	sh := shadow.New(cfg.N)
	d := &driver{
		pps:  pps,
		sh:   sh,
		opts: &opts,
		end:  end,
		st:   cell.NewStamperSized(cfg.N),
		rec:  metrics.NewRecorderSized(cfg.N),
	}
	if opts.Validate {
		d.vd = traffic.NewValidator(cfg.N)
	}
	if err := opts.Admission.Validate(); err != nil {
		return nil, err
	}
	if !opts.Admission.Empty() {
		d.adm = admission.NewRuntime(opts.Admission, cfg.N)
	}
	d.probing = len(opts.Probes) > 0
	if d.probing {
		d.view = &slotView{pps: pps, sh: sh, rec: d.rec}
	}

	// The span feed serves every engine's arrival phase; engine eligibility
	// is still keyed off the raw source (selectEngine), but quiescence
	// queries must go through the feed so they interleave with slab state.
	d.feed = traffic.NewSpanFeed(src, end)
	d.eng, d.reason = selectEngine(pps, src, opts)
	if d.eng != EngineStepped {
		d.next = traffic.NewEventFeed(d.feed.Look())
	}

	// Live telemetry: explicit Options.Telemetry wins, else the process
	// global. Per-slot ticks are atomic stores; the delay histograms are
	// delta-flushed every telemetryFlushStride executed slots (and once at
	// the end), so the steady-state slot path stays lock- and
	// allocation-free.
	d.tel = opts.Telemetry
	if d.tel == nil {
		d.tel = obs.GlobalTelemetry()
	}
	if d.tel != nil {
		d.telPrev = obs.NewDelaySet()
		d.tel.RunStarted()
	}
	return d, nil
}

// Drive is Run against an existing PPS (so callers can inject plane
// failures or inspect internals afterwards). The PPS must be fresh (slot -1):
// per-run accounting (output utilization windows, peak queues, dispatch
// counters) is cumulative, so driving a fabric twice would silently blend
// the runs; Drive rejects a used fabric instead.
func Drive(pps *fabric.PPS, src traffic.Source, opts Options) (Result, error) {
	d, err := newDriver(pps, src, opts)
	if err != nil {
		return Result{}, err
	}
	if d.tel != nil {
		defer d.tel.RunFinished()
	}
	if err := d.run(); err != nil {
		return Result{}, err
	}
	sh, cfg, slot := d.sh, pps.Config(), d.slot
	if d.tel != nil {
		d.tel.ObserveDelays(d.rec.Delays(), d.telPrev)
		d.tel.Tick(int64(slot), pps.Backlog(), d.rec.Matched(), d.rec.Drops(), d.rec.AdmittedTotal(), d.rec.RejectedTotal(), d.rec.ExpiredTotal())
	}
	if !pps.Drained() || !sh.Drained() {
		return Result{}, fmt.Errorf("harness: not drained after %d slots (pps backlog %d, shadow backlog %d)",
			slot, pps.Backlog(), sh.Backlog())
	}
	if d.probing && slot > 0 {
		// Final-slot flush: stride decimation would otherwise drop the last
		// executed slot (slot-1, whose state the view still holds), leaving
		// decimated series ending on pre-drain values. Force one sample per
		// series; slots already recorded are only marked Final, not
		// duplicated.
		for _, pb := range opts.Probes {
			for _, s := range pb.Series() {
				s.ForceNext()
			}
			pb.Sample(d.view)
		}
	}

	res := Result{
		Report:         d.rec.Report(),
		PeakPlaneQueue: pps.PeakPlaneQueue(),
		Slots:          slot,
		AlgorithmName:  pps.Algorithm().Name(),
		TraceEvents:    opts.Tracer.Events(),
		Engine:         d.eng.String(),
		EngineReason:   d.reason,
	}
	res.Drops = res.Report.Drops
	res.OnTimeFraction = res.Report.OnTimeFraction
	if slot > 0 {
		res.Goodput = float64(res.Report.Cells) / float64(slot)
	}
	if d.vd != nil {
		res.Burstiness = d.vd.Burstiness()
	}
	if opts.Utilization {
		res.Utilization = make([]float64, cfg.N)
		for j := 0; j < cfg.N; j++ {
			res.Utilization[j] = pps.Output(cell.Port(j)).Utilization()
		}
	}
	if d.probing {
		res.Series = obs.CollectSeries(opts.Probes)
	}
	if m := opts.Metrics; m != nil {
		m.Counter("harness_runs").Inc()
		m.Counter("harness_slots").Add(int64(slot))
		m.Counter("harness_cells").Add(int64(res.Report.Cells))
		m.Counter("harness_trace_events").Add(int64(res.TraceEvents))
		m.Counter("harness_drops").Add(int64(res.Drops))
		m.Gauge("harness_last_peak_plane_queue").Set(int64(res.PeakPlaneQueue))
		m.Histogram("harness_max_rqd").Add(int64(res.Report.MaxRQD))
		// Admission counters only when a policy shed something, so bare
		// runs leave the registry exactly as before this layer existed.
		if rej, exp := res.Report.Rejected, res.Report.ExpiredAdmit+res.Report.ExpiredReseq; rej > 0 || exp > 0 {
			m.Counter("harness_rejected").Add(int64(rej))
			m.Counter("harness_expired").Add(int64(exp))
		}
	}
	return res, nil
}

// sampleIdleSpan replays probe sampling for the elided slots [from, to) of a
// fast-forward jump. Probes implementing obs.IdleSpanSampler synthesize
// their points in closed form; any other probe is driven through its regular
// per-slot Sample so correctness never depends on the capability. No cell
// departs inside an idle span, so the view's front-RQD is cleared once for
// the whole span, and the view is left on the last elided slot — exactly the
// state the stepped loop would leave behind.
func sampleIdleSpan(probes []obs.Probe, view *slotView, from, to cell.Time) {
	view.rqd, view.rqdOK = 0, false
	for _, pb := range probes {
		if is, ok := pb.(obs.IdleSpanSampler); ok {
			is.SampleIdleSpan(view, from, to)
			continue
		}
		for t := from; t < to; t++ {
			view.slot = t
			pb.Sample(view)
		}
	}
	view.slot = to - 1
}

// String renders the full result as a small multi-line report, so CLIs and
// examples share one format instead of hand-formatting fields.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "algorithm=%s slots=%d peakPlaneQueue=%d", r.AlgorithmName, r.Slots, r.PeakPlaneQueue)
	if r.Burstiness > 0 {
		fmt.Fprintf(&b, " B=%d", r.Burstiness)
	}
	fmt.Fprintf(&b, "\n%s", r.Report)
	fmt.Fprintf(&b, "\nstage wait mean/max: input %.2f/%d plane %.2f/%d output %.2f/%d",
		r.Report.MeanInputWait, r.Report.MaxInputWait,
		r.Report.MeanPlaneWait, r.Report.MaxPlaneWait,
		r.Report.MeanOutputWait, r.Report.MaxOutputWait)
	if q := r.Report.Percentiles; q.RQD.N > 0 {
		fmt.Fprintf(&b, "\nrqd p50/p99/p999: %d/%d/%d  interdep gap p99: %d",
			q.RQD.P50, q.RQD.P99, q.RQD.P999, q.Gap.P99)
		fmt.Fprintf(&b, "\ntail p99 demux/plane/reseq: %d/%d/%d",
			q.Demux.P99, q.Plane.P99, q.Reseq.P99)
	}
	if len(r.Utilization) > 0 {
		min, mean, active := 1.0, 0.0, 0
		for _, u := range r.Utilization {
			if u == 0 {
				continue
			}
			active++
			mean += u
			if u < min {
				min = u
			}
		}
		if active > 0 {
			fmt.Fprintf(&b, "\nutilization: active=%d mean=%.4f min=%.4f", active, mean/float64(active), min)
		}
	}
	if len(r.Series) > 0 {
		pts := 0
		for _, s := range r.Series {
			pts += s.Len()
		}
		fmt.Fprintf(&b, "\nseries: %d (%d points)", len(r.Series), pts)
	}
	if rep := r.Report; rep.Rejected > 0 || rep.ExpiredAdmit > 0 || rep.ExpiredReseq > 0 {
		fmt.Fprintf(&b, "\nadmission: offered=%d admitted=%d rejected=%d expired=%d goodput=%.4f onTime=%.3f",
			rep.Offered, rep.Admitted, rep.Rejected, rep.ExpiredAdmit+rep.ExpiredReseq, r.Goodput, r.OnTimeFraction)
	}
	if r.TraceEvents > 0 {
		fmt.Fprintf(&b, "\ntrace events: %d", r.TraceEvents)
	}
	return b.String()
}
