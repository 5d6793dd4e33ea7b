package main

import (
	"time"

	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/mux"
	"ppsim/internal/obs"
)

// layer indexes the modules whose calls the traced driver times. The fabric
// span encloses the demux and mux spans (the fabric calls into both); its
// self time is computed by subtracting them. The harness layer has no span of
// its own: it is the traced wall time minus every layer's self time.
type layer int

const (
	lTraffic layer = iota
	lAdmission
	lCell
	lDemux
	lMux
	lFabric
	lShadow
	lMetrics
	numLayers
)

var layerNames = [numLayers]string{"traffic", "admission", "cell", "demux", "mux", "fabric", "shadow", "metrics"}

var epoch = time.Now()

// now reads the monotonic clock in nanoseconds.
func now() int64 { return int64(time.Since(epoch)) }

// spans accumulates one traced run's per-layer busy time (in span-clock
// ticks) and work counts.
//
// Calls made inside executed slots are timed only on sampled slots (one in
// period executed slots, drawn at random); self scales them to the whole
// run. Calls made once per run or once per quiet stretch (constructors, the
// quiet-branch lookahead query, result building) are always timed and count
// as measured. Consecutive calls into one layer with no other layer's call
// between them share one span. Work counters are exact on every slot.
type spans struct {
	period int64
	// rng draws which executed slots are sampled: each with probability
	// 1/period, independently, so the sample cannot alias with periodic
	// work such as the span feed's slab refills.
	rng uint64
	// sample is true while the current executed slot is a sampled one.
	sample bool

	exact, sampled           [numLayers]int64
	exactSpans, sampledSpans [numLayers]int64

	executed, sampledSlots int64
	// sampledSlotTicks is the summed duration of the sampled slots;
	// slotTicks holds the duration of every unsampled one.
	sampledSlotTicks int64
	slotTicks        obs.LogHist

	trafficCalls, arrivals                   int64
	admissionCalls                           int64
	stamps                                   int64
	demuxSlotCalls, sends                    int64
	muxPullCalls, cellsPulled, muxProductive int64
	fabricCalls, departures                  int64
	shadowCalls                              int64
	metricsCalls                             int64
}

// start opens a sampled span: it reads the clock only on sampled slots.
func (s *spans) start() int64 {
	if s.sample {
		return ticks()
	}
	return 0
}

// stop closes a span opened by start.
func (s *spans) stop(l layer, t0 int64) {
	if s.sample {
		s.sampled[l] += ticks() - t0
		s.sampledSpans[l]++
	}
}

// stopExact closes an always-timed span opened with ticks().
func (s *spans) stopExact(l layer, t0 int64) {
	s.exact[l] += ticks() - t0
	s.exactSpans[l]++
}

// newSpans returns empty accumulators sampling one executed slot in period.
func newSpans(period int64) *spans {
	return &spans{period: period, rng: 0x9e3779b97f4a7c15}
}

// beginSlot decides whether the executed slot about to run is sampled.
func (s *spans) beginSlot() {
	// xorshift64*
	s.rng ^= s.rng >> 12
	s.rng ^= s.rng << 25
	s.rng ^= s.rng >> 27
	s.sample = (s.rng*0x2545f4914f6cdd1d)%uint64(s.period) == 0
	if s.sample {
		s.sampledSlots++
	}
}

// endSlot closes the executed slot that took d ticks.
func (s *spans) endSlot(d int64) {
	if s.sample {
		s.sampledSlotTicks += d
	} else {
		s.slotTicks.Record(d)
	}
	s.sample = false
	s.executed++
}

// clockCost is the cost of one span, in ticks: inside is what the span
// itself measures (the part of the two clock reads that falls between the
// readings), total is the time the span adds to its caller.
type clockCost struct{ inside, total float64 }

// calibrate measures clockCost over n empty spans in a tight loop and keeps
// the cheapest of a few rounds, so a preempted round does not inflate it.
func calibrate() clockCost {
	const n, rounds = 20000, 5
	best := clockCost{inside: -1}
	for r := 0; r < rounds; r++ {
		var inside int64
		w0 := ticks()
		for i := 0; i < n; i++ {
			t0 := ticks()
			inside += ticks() - t0
		}
		c := clockCost{inside: float64(inside) / n, total: float64(ticks()-w0) / n}
		if best.inside < 0 || c.total < best.total {
			best = c
		}
	}
	return best
}

// self returns each layer's estimated self time over the run in ticks.
// Every span loses the calibrated clock cost measured inside it, and the
// fabric span also loses its demux and mux child spans with the whole cost
// of timing them. Inside executed slots, each layer's share of the sampled
// slots' own time (their duration less the calibrated cost of the spans
// they timed) is applied to the time of all executed slots, estimated from
// the unsampled ones. Clock reads cost more in context than in the
// calibration loop, because each call spills the caller's live registers;
// the excess stays in the base, so it dilutes the layer shares and lands in
// the harness residual rather than pushing the residual below zero.
// Always-timed spans add their corrected time.
func (s *spans) self(c clockCost) [numLayers]float64 {
	var sampled, self [numLayers]float64
	var n int64
	for l := layer(0); l < numLayers; l++ {
		sampled[l] = float64(s.sampled[l]) - float64(s.sampledSpans[l])*c.inside
		self[l] = float64(s.exact[l]) - float64(s.exactSpans[l])*c.inside
		n += s.sampledSpans[l]
	}
	sampled[lFabric] -= sampled[lDemux] + sampled[lMux] + float64(s.sampledSpans[lDemux]+s.sampledSpans[lMux])*c.total
	base := float64(s.sampledSlotTicks) - float64(n)*c.total
	slots := base
	if s.slotTicks.N() > 0 {
		slots = s.slotTicks.Mean() * float64(s.executed)
	}
	for l := layer(0); l < numLayers; l++ {
		if base > 0 {
			self[l] += sampled[l] / base * slots
		}
		if self[l] < 0 {
			self[l] = 0
		}
	}
	return self
}

// tracedDemux decorates the demultiplexing algorithm with a demux span. It
// forwards IdleInvariant so engine selection is unchanged.
type tracedDemux struct {
	inner demux.Algorithm
	sp    *spans
}

func (d *tracedDemux) Name() string { return d.inner.Name() }

func (d *tracedDemux) Slot(t cell.Time, arrivals []cell.Cell) ([]demux.Send, error) {
	t0 := d.sp.start()
	sends, err := d.inner.Slot(t, arrivals)
	d.sp.stop(lDemux, t0)
	d.sp.demuxSlotCalls++
	d.sp.sends += int64(len(sends))
	return sends, err
}

// Buffered is the fabric's per-input audit query: a field read, left
// untimed (its cost stays in fabric self time) because a span around it
// would cost far more than the call.
func (d *tracedDemux) Buffered(in cell.Port) int { return d.inner.Buffered(in) }

func (d *tracedDemux) IdleInvariant() bool {
	ii, ok := d.inner.(demux.IdleInvariant)
	return ok && ii.IdleInvariant()
}

// tracedMux decorates the output pull policy with a mux span and counts the
// cells each pull moves into the resequencing buffer.
type tracedMux struct {
	inner mux.Policy
	sp    *spans
}

func (m *tracedMux) Name() string { return m.inner.Name() }

func (m *tracedMux) Pull(t cell.Time, pv mux.PlaneView, buf *mux.Buffer) error {
	before := buf.Len()
	t0 := m.sp.start()
	err := m.inner.Pull(t, pv, buf)
	m.sp.stop(lMux, t0)
	m.sp.muxPullCalls++
	if moved := buf.Len() - before; moved > 0 {
		m.sp.cellsPulled += int64(moved)
		m.sp.muxProductive++
	}
	return err
}
