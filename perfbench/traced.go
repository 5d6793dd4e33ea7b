package main

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"

	"ppsim/internal/admission"
	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/fabric"
	"ppsim/internal/harness"
	"ppsim/internal/metrics"
	"ppsim/internal/mux"
	"ppsim/internal/obs"
	"ppsim/internal/shadow"
	"ppsim/internal/traffic"
)

// tracedRun is the outcome of one traced execution.
type tracedRun struct {
	res harness.Result
	sp  *spans
	// wallNs is the traced drive's wall time, excluding the forced GC that
	// measures the retained heap.
	wallNs int64
	// wallTicks is the same interval on the span clock; wallNs/wallTicks
	// converts span ticks to nanoseconds.
	wallTicks int64
	// retained is the live heap after GC at the end of the slot loop minus
	// the live heap before set-up.
	retained int64
	// gcCycles and gcCPUSeconds cover the drive (forced GCs excluded).
	gcCycles     uint64
	gcCPUSeconds float64
	// logEvents is the fabric's global event-log length, read only when the
	// workload's algorithm already arms the log.
	logEvents int
}

// runtimeSample reads the GC counters the traced run reports.
type runtimeSample struct {
	cycles uint64
	gcCPU  float64
}

var gcSamples = []rtmetrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readRuntime() runtimeSample {
	rtmetrics.Read(gcSamples)
	return runtimeSample{cycles: gcSamples[0].Value.Uint64(), gcCPU: gcSamples[1].Value.Float64()}
}

// tracedDriver is a copy of harness.Drive's driver restricted to the options
// the benchmark workloads use (auto engine; no probes, tracer, telemetry,
// validator, departure observer, faults or stage-parallel workers), with a
// span around every call into a module's public functions. Its loops are
// call-for-call copies of harness.Drive's runEvent and runStepped, so the
// run produces the same Result; main checks that it does.
type tracedDriver struct {
	pps  *fabric.PPS
	sh   *shadow.Switch
	opts *harness.Options
	end  cell.Time
	st   *cell.Stamper
	rec  *metrics.Recorder
	look traffic.Lookahead
	feed *traffic.SpanFeed
	adm  *admission.Runtime
	sp   *spans

	deps, shDeps, cellsBuf []cell.Cell
	slot                   cell.Time
}

// feedSlot mirrors the harness's feedSlot: read, admit and stamp slot t's
// arrivals.
func (d *tracedDriver) feedSlot(t cell.Time) []cell.Cell {
	sp := d.sp
	cells := d.cellsBuf[:0]
	t0 := sp.start()
	arrs := d.feed.SlotArrivals(t)
	sp.stop(lTraffic, t0)
	sp.trafficCalls++
	sp.arrivals += int64(len(arrs))
	for _, a := range arrs {
		t0 = sp.start()
		d.rec.OfferCell()
		sp.metricsCalls++
		if d.adm != nil {
			sp.stop(lMetrics, t0)
			t0 = sp.start()
			expired := d.adm.Expired(t, a.Deadline)
			sp.admissionCalls++
			if expired {
				sp.stop(lAdmission, t0)
				t0 = sp.start()
				d.rec.ExpireAtAdmission()
				sp.stop(lMetrics, t0)
				sp.metricsCalls++
				continue
			}
			admit := d.adm.Admit(t, a.In)
			sp.stop(lAdmission, t0)
			sp.admissionCalls++
			if !admit {
				t0 = sp.start()
				d.rec.RejectCell(a.In)
				sp.stop(lMetrics, t0)
				sp.metricsCalls++
				continue
			}
			t0 = sp.start()
		}
		d.rec.AdmitCell()
		sp.stop(lMetrics, t0)
		sp.metricsCalls++
		t0 = sp.start()
		c := d.st.Stamp(cell.Flow{In: a.In, Out: a.Out}, t)
		sp.stop(lCell, t0)
		sp.stamps++
		c.Deadline = a.Deadline
		cells = append(cells, c)
	}
	d.cellsBuf = cells
	return cells
}

// recordDepartures mirrors the harness's recordDepartures. Without an
// admission runtime every call in the loop is a recorder call, so one span
// covers the loop.
func (d *tracedDriver) recordDepartures() {
	sp := d.sp
	if d.adm == nil {
		t0 := sp.start()
		for _, c := range d.deps {
			d.rec.PPSDepart(c)
			sp.metricsCalls++
			if c.Deadline == 0 || c.Depart <= c.Deadline {
				d.rec.OnTimeCell()
				sp.metricsCalls++
			}
		}
		sp.stop(lMetrics, t0)
	} else {
		for _, c := range d.deps {
			t0 := sp.start()
			expired := d.adm.Expired(c.Depart, c.Deadline)
			sp.stop(lAdmission, t0)
			sp.admissionCalls++
			t0 = sp.start()
			if expired {
				d.rec.PPSExpired(c)
				sp.stop(lMetrics, t0)
				sp.metricsCalls++
				continue
			}
			d.rec.PPSDepart(c)
			sp.metricsCalls++
			if c.Deadline == 0 || c.Depart <= c.Deadline {
				d.rec.OnTimeCell()
				sp.metricsCalls++
			}
			sp.stop(lMetrics, t0)
		}
	}
	if drops := d.pps.SlotDrops(); len(drops) > 0 {
		t0 := sp.start()
		for _, c := range drops {
			d.rec.PPSDrop(c)
		}
		sp.stop(lMetrics, t0)
		sp.metricsCalls += int64(len(drops))
	}
}

// recordShadow feeds the slot's shadow departures to the recorder.
func (d *tracedDriver) recordShadow() {
	t0 := d.sp.start()
	for _, c := range d.shDeps {
		d.rec.ShadowDepart(c)
	}
	d.sp.stop(lMetrics, t0)
	d.sp.metricsCalls += int64(len(d.shDeps))
}

// stepShadow runs the shadow switch for one slot.
func (d *tracedDriver) stepShadow(slot cell.Time, cells []cell.Cell) {
	t0 := d.sp.start()
	d.shDeps = d.sh.Step(slot, cells, d.shDeps[:0])
	d.sp.stop(lShadow, t0)
	d.sp.shadowCalls++
}

// endSlot closes an executed slot opened at it0.
func (d *tracedDriver) endSlot(it0 int64) { d.sp.endSlot(ticks() - it0) }

// fabricDone closes a fabric step's span and counts its departures.
func (d *tracedDriver) fabricDone(t0 int64, err error) error {
	d.sp.stop(lFabric, t0)
	d.sp.fabricCalls++
	if err == nil {
		d.sp.departures += int64(len(d.deps))
	}
	return err
}

// runStepped copies harness.Drive's runStepped as it runs under EngineAuto:
// serial (no overlapped shadow goroutine), no idle elision, no probes or
// telemetry.
func (d *tracedDriver) runStepped() error {
	pps, sh, opts, end := d.pps, d.sh, d.opts, d.end
	var err error
	slot := cell.Time(0)
	for ; slot < opts.MaxSlots; slot++ {
		if slot >= end && pps.Drained() && sh.Drained() {
			break
		}
		d.sp.beginSlot()
		it0 := ticks()
		cells := d.cellsBuf[:0]
		if slot < end {
			cells = d.feedSlot(slot)
		}
		t0 := d.sp.start()
		d.deps, err = pps.Step(slot, cells, d.deps[:0])
		if err = d.fabricDone(t0, err); err != nil {
			return err
		}
		d.recordDepartures()
		d.stepShadow(slot, cells)
		d.recordShadow()
		d.endSlot(it0)
	}
	d.slot = slot
	return nil
}

// runEvent copies harness.Drive's runEvent (no probes or telemetry).
func (d *tracedDriver) runEvent() error {
	pps, sh, opts, end := d.pps, d.sh, d.opts, d.end
	feed := traffic.NewEventFeed(d.look)
	var err error
	slot := cell.Time(0)
	for ; slot < opts.MaxSlots; slot++ {
		if slot >= end && pps.Drained() && sh.Drained() {
			break
		}
		if pps.Backlog() == 0 && sh.Drained() {
			t0 := ticks()
			na := feed.Next(slot - 1)
			d.sp.stopExact(lTraffic, t0)
			d.sp.trafficCalls++
			if na != cell.None && na >= end {
				na = cell.None
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
				slot = until - 1
				continue
			}
		}
		d.sp.beginSlot()
		it0 := ticks()
		cells := d.cellsBuf[:0]
		if slot < end {
			cells = d.feedSlot(slot)
		}
		t0 := d.sp.start()
		d.deps, err = pps.EventStep(slot, cells, d.deps[:0])
		if err = d.fabricDone(t0, err); err != nil {
			return err
		}
		d.recordDepartures()
		d.stepShadow(slot, cells)
		d.recordShadow()
		d.endSlot(it0)
	}
	d.slot = slot
	return nil
}

// selectEngine copies harness's EngineAuto selection for untraced, serial
// runs: the event core when the run qualifies, the stepped core otherwise.
func selectEngine(pps *fabric.PPS, src traffic.Source) (harness.Engine, string) {
	if _, ok := src.(traffic.Lookahead); !ok {
		return harness.EngineStepped, "source does not implement traffic.Lookahead"
	}
	if !pps.IdleInvariant() {
		return harness.EngineStepped, "algorithm " + pps.Algorithm().Name() + " does not certify demux.IdleInvariant"
	}
	return harness.EngineEvent, ""
}

// traceDrive builds the workload with the demux and mux decorators and runs
// it through the traced driver. period is the executed-slot sampling period
// of the sub-microsecond spans.
func traceDrive(w workload, seed int64, opts harness.Options, period int64) (tracedRun, error) {
	if opts.Engine != harness.EngineAuto || opts.FastForward || opts.Tracer != nil || len(opts.Probes) > 0 ||
		opts.Telemetry != nil || opts.Metrics != nil || opts.Validate || opts.OnPPSDepart != nil ||
		opts.OnFastForward != nil || opts.Workers != 0 || len(opts.FailPlanes) > 0 || opts.Faults != nil ||
		obs.GlobalTelemetry() != nil {
		return tracedRun{}, fmt.Errorf("traced driver: options outside the benchmark's workloads")
	}
	sp := newSpans(period)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapBefore := int64(ms.HeapAlloc)

	src, pps, err := w.setup(seed, &tracedMux{inner: mux.Eager{}, sp: sp},
		func(a demux.Algorithm) demux.Algorithm { return &tracedDemux{inner: a, sp: sp} })
	if err != nil {
		return tracedRun{}, err
	}
	if opts.MaxSlots <= 0 {
		opts.MaxSlots = 1 << 22
	}
	rt0 := readRuntime()
	start, startT := now(), ticks()

	if s := pps.CurrentSlot(); s != -1 {
		return tracedRun{}, fmt.Errorf("traced driver: fabric already driven through slot %d", s)
	}
	cfg := pps.Config()
	end := src.End()
	if end == cell.None {
		if opts.Horizon <= 0 {
			return tracedRun{}, fmt.Errorf("traced driver: unbounded source needs an explicit Horizon")
		}
		end = opts.Horizon
	} else if opts.Horizon > 0 && opts.Horizon < end {
		end = opts.Horizon
	}
	defer pps.Close()
	t0 := ticks()
	sh := shadow.New(cfg.N)
	sp.stopExact(lShadow, t0)
	t0 = ticks()
	st := cell.NewStamperSized(cfg.N)
	sp.stopExact(lCell, t0)
	t0 = ticks()
	rec := metrics.NewRecorderSized(cfg.N)
	sp.stopExact(lMetrics, t0)
	d := &tracedDriver{pps: pps, sh: sh, opts: &opts, end: end, st: st, rec: rec, sp: sp}
	if err := opts.Admission.Validate(); err != nil {
		return tracedRun{}, err
	}
	if !opts.Admission.Empty() {
		t0 = ticks()
		d.adm = admission.NewRuntime(opts.Admission, cfg.N)
		sp.stopExact(lAdmission, t0)
	}
	t0 = ticks()
	d.feed = traffic.NewSpanFeed(src, end)
	sp.stopExact(lTraffic, t0)
	eng, reason := selectEngine(pps, src)
	d.look = d.feed.Look()
	if eng == harness.EngineEvent {
		err = d.runEvent()
	} else {
		err = d.runStepped()
	}
	if err != nil {
		return tracedRun{}, err
	}

	// Pause the clock: measure the retained heap with everything the run
	// built still reachable.
	loopEnd, loopEndT := now(), ticks()
	rt1 := readRuntime()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	retained := int64(ms.HeapAlloc) - heapBefore
	rt2 := readRuntime()
	resume, resumeT := now(), ticks()

	slot := d.slot
	if !pps.Drained() || !sh.Drained() {
		return tracedRun{}, fmt.Errorf("traced driver: not drained after %d slots (pps backlog %d, shadow backlog %d)",
			slot, pps.Backlog(), sh.Backlog())
	}
	t0 = ticks()
	rep := rec.Report()
	sp.stopExact(lMetrics, t0)
	sp.metricsCalls++
	res := harness.Result{
		Report:         rep,
		PeakPlaneQueue: pps.PeakPlaneQueue(),
		Slots:          slot,
		AlgorithmName:  pps.Algorithm().Name(),
		Engine:         eng.String(),
		EngineReason:   reason,
		Workers:        pps.Workers(),
		ShardPorts:     pps.ShardPorts(),
	}
	res.Drops = res.Report.Drops
	res.OnTimeFraction = res.Report.OnTimeFraction
	if slot > 0 {
		res.Goodput = float64(res.Report.Cells) / float64(slot)
	}
	if opts.Utilization {
		res.Utilization = make([]float64, cfg.N)
		for j := 0; j < cfg.N; j++ {
			res.Utilization[j] = pps.Output(cell.Port(j)).Utilization()
		}
	}
	stop, stopT := now(), ticks()
	rt3 := readRuntime()

	tr := tracedRun{
		res:          res,
		sp:           sp,
		wallNs:       (loopEnd - start) + (stop - resume),
		wallTicks:    (loopEndT - startT) + (stopT - resumeT),
		retained:     retained,
		gcCycles:     (rt1.cycles - rt0.cycles) + (rt3.cycles - rt2.cycles),
		gcCPUSeconds: (rt1.gcCPU - rt0.gcCPU) + (rt3.gcCPU - rt2.gcCPU),
	}
	if w.readsLog {
		tr.logEvents = pps.Log().Len()
	}
	return tr, nil
}
