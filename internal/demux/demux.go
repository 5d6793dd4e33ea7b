// Package demux implements the demultiplexing algorithms of the PPS: the
// per-input state machines that decide, for every arriving cell, which
// middle-stage plane it is switched through (Definitions 1 and 2 of the
// paper), or — in the input-buffered variant — whether it is held in the
// input buffer.
//
// The paper classifies demultiplexing algorithms by the information they
// use (Section 1):
//
//   - centralized: every decision sees the full, current switch status
//     (CPA);
//   - fully-distributed: decisions see only the input-port's local history
//     (RoundRobin, StaticPartition, Random, FTD, BufferedRR);
//   - u real-time distributed (u-RT): local information plus global
//     information older than u slots (StaleCPA, BufferedCPA).
//
// Information discipline is enforced by construction: fully-distributed
// algorithms never read the global event log, u-RT algorithms read it only
// through a cursor capped at t-u, and only CPA holds a live reference to
// current global state.
package demux

import (
	"fmt"

	"ppsim/internal/cell"
)

// Send is one dispatch decision: transmit Cell to plane Plane in the
// current slot. The fabric seizes the (input, plane) gate and errors if the
// algorithm violated the input constraint.
type Send struct {
	Cell  cell.Cell
	Plane cell.Plane
}

// Algorithm is a demultiplexing algorithm for the whole input stage. A
// single value handles all N inputs; distributed algorithms keep isolated
// per-input state internally.
type Algorithm interface {
	// Name identifies the algorithm in reports and the registry.
	Name() string

	// Slot processes one time-slot. arrivals holds the cells arriving at
	// slot t, at most one per input, in global sequence order. The
	// returned sends are executed this slot; any arrival not sent must be
	// buffered by the algorithm (only input-buffered algorithms may do
	// so). Slot is called for every slot, including silent ones, so
	// buffered algorithms can release held cells — except that engines may
	// elide the call on slots that are provably idle (no arrivals, no
	// buffered cells anywhere) when the algorithm certifies IdleInvariant.
	// The returned slice is only valid until the next Slot call:
	// algorithms reuse its backing array across slots to keep the steady
	// state allocation-free.
	Slot(t cell.Time, arrivals []cell.Cell) ([]Send, error)

	// Buffered reports the number of cells currently held in input-port
	// i's buffer; bufferless algorithms return 0. The fabric uses it for
	// conservation checks and buffer-capacity enforcement.
	Buffered(in cell.Port) int
}

// sendScratch is the reusable per-slot sends slice embedded by every
// algorithm. The fabric consumes the slice returned by Slot before the next
// Slot call (see Algorithm.Slot), so handing out the same backing array
// each slot is safe and keeps steady-state dispatch allocation-free.
type sendScratch struct{ sends []Send }

// take returns the reusable slice, emptied.
func (s *sendScratch) take() []Send { return s.sends[:0] }

// keep retains sends' backing array for the next slot and returns sends.
func (s *sendScratch) keep(sends []Send) []Send {
	s.sends = sends
	return sends
}

// IdleInvariant is an optional Algorithm capability for the harness's
// quiescence fast-forward and event-driven cores: an algorithm returns true
// to certify that Slot(t, nil) on a slot with no arrivals — and, for
// input-buffered algorithms, no buffered cells — leaves every piece of its
// observable state (pointers, counters, RNG streams, log cursors) unchanged
// and returns no sends. Under that certificate the engine may skip Slot
// entirely on elided idle slots and still produce bit-identical results.
//
// The certificate also makes *partial* idleness sound for the event core's
// sparse bookkeeping: because an idle Slot call is a provable no-op, the
// only inputs whose buffer reports can change on any slot are those holding
// pending cells plus those receiving an arrival, and the only outputs that
// can emit are those already holding queued work — so auditing just those
// working sets observes everything a full O(N) walk would. An algorithm
// whose Slot could touch per-input or per-output state *outside* those sets
// on a non-idle slot is still fine (the fabric executes every non-idle slot
// in full); only idle-slot mutation breaks the contract.
//
// Algorithms whose per-slot work is driven by wall-clock time rather than
// arrivals must NOT implement this (or must return false): the stale-info
// family advances its delayed view of the global log every slot, including
// silent ones, so eliding a slot would change which events it has digested
// when the next burst lands.
type IdleInvariant interface {
	IdleInvariant() bool
}

// Prober is implemented by deterministic algorithms that can reveal which
// plane they would pick next for a given (input, output) pair, assuming all
// input gates free and no intervening arrivals. The steering adversary of
// Theorem 6 uses it as a stand-in for the proof's "for every pair of
// applicable configurations there is a traffic leading from one to the
// other": instead of searching traffic space, it asks the state machine
// directly and feeds cells until the answer is the target plane.
type Prober interface {
	WouldChoose(in cell.Port, out cell.Port) (cell.Plane, bool)
}

// Env is the fabric-provided environment an algorithm is constructed with.
type Env interface {
	// Ports returns N, the number of external ports.
	Ports() int
	// Planes returns K, the number of middle-stage switches.
	Planes() int
	// RPrime returns r' = R/r, the slots an internal line is held per cell.
	RPrime() int64
	// InputGateFreeAt returns the earliest slot at which input in may
	// start a transmission to plane k. The input's own gates are local
	// information, available to every class of algorithm.
	InputGateFreeAt(in cell.Port, k cell.Plane) cell.Time
	// Log returns the global event log. Fully-distributed algorithms must
	// not call it; u-RT algorithms must cap reads at t-u.
	Log() *Log
}

// GateMasker is an optional Env capability: the set of planes whose line
// from input `in` is free at slot t, as a bitmask over plane indices. It is
// the batched form of InputGateFreeAt — one call per cell instead of K — and
// the free-gate gate for the O(1) amortized plane-selection structures, so
// fault-aware wrappers compose by clearing dead planes' bits.
//
// The capability is only meaningful when Planes() <= 64; algorithms must
// fall back to the per-plane scan on wider switches even when the Env
// asserts the interface. Queries for an input must come with non-decreasing
// t (the fabric's per-slot dispatch order guarantees this).
type GateMasker interface {
	FreeGateMask(in cell.Port, t cell.Time) uint64
}

// gateMasker resolves env's GateMasker capability, nil when absent or when
// the plane count exceeds the 64-bit mask width.
func gateMasker(env Env) GateMasker {
	if env.Planes() > 64 {
		return nil
	}
	m, _ := env.(GateMasker)
	return m
}

// freeMask returns the bitmask of planes whose gate from input `in` is free
// at slot t: one capability call when masker is non-nil, a per-plane scan
// over env otherwise. Callers must ensure env.Planes() <= 64.
func freeMask(env Env, masker GateMasker, in cell.Port, t cell.Time) uint64 {
	if masker != nil {
		return masker.FreeGateMask(in, t)
	}
	var m uint64
	for k := env.Planes() - 1; k >= 0; k-- {
		if env.InputGateFreeAt(in, cell.Plane(k)) <= t {
			m |= 1 << uint(k)
		}
	}
	return m
}

// EventKind discriminates global log entries.
type EventKind uint8

// Event kinds recorded by the fabric.
const (
	// EvArrival: a cell arrived at input In destined to Out.
	EvArrival EventKind = iota
	// EvDispatch: a cell for Out was sent from In to plane K.
	EvDispatch
	// EvXmit: a cell for Out crossed the (K, Out) plane-to-output line.
	EvXmit
)

// Event is one entry of the global log.
type Event struct {
	T    cell.Time
	Kind EventKind
	In   cell.Port
	Out  cell.Port
	K    cell.Plane
}

// Log is the record of globally visible switch events, written by the
// fabric in slot order. Readers hold independent cursors, so several u-RT
// viewers with different staleness can share one log.
//
// The log keeps only what a registered reader may still read: when it
// fills, it drops the prefix every cursor passed to Register has consumed,
// so a reader capped at t-u keeps O(events in u slots) in memory however
// long the run. With no registered cursor nothing is dropped. Len still
// counts every event appended, and a Read through a cursor behind the
// dropped prefix panics rather than silently skipping events.
type Log struct {
	events  []Event   // retained suffix; events[i] is event number base+i
	base    int       // events dropped from the front
	readers []*Cursor // registered cursors: the prefix before all of them may be dropped
}

// Append records an event. Events must be appended in non-decreasing slot
// order; the fabric guarantees this.
func (l *Log) Append(e Event) {
	n := len(l.events)
	if n > 0 && e.T < l.events[n-1].T {
		panic(fmt.Sprintf("demux: log event at slot %d after slot %d", e.T, l.events[n-1].T))
	}
	if n == cap(l.events) {
		l.compact()
	}
	l.events = append(l.events, e)
}

// compact drops the prefix every registered reader has consumed. When the
// events still to be read fill more than half the array, they move to a
// fresh array of twice their count; otherwise they slide down in place, so
// a steady reader keeps reusing one array of at most twice its window.
func (l *Log) compact() {
	if len(l.readers) == 0 {
		return
	}
	lo := l.readers[0].idx
	for _, c := range l.readers[1:] {
		lo = min(lo, c.idx)
	}
	drop := lo - l.base
	if drop <= 0 {
		return
	}
	live := l.events[drop:]
	if len(live) > cap(l.events)/2 {
		l.events = append(make([]Event, 0, 2*len(live)), live...)
	} else {
		l.events = l.events[:copy(l.events, live)]
	}
	l.base = lo
}

// Len reports the number of events appended, including any dropped.
func (l *Log) Len() int { return l.base + len(l.events) }

// Cursor tracks a reader's position in the log. The zero value starts at
// the beginning.
type Cursor struct{ idx int }

// Register makes c a reader the log must keep events for: from then on only
// events c (and every other registered cursor) has read may be dropped. An
// algorithm registers its cursor once, before the first event is appended.
func (l *Log) Register(c *Cursor) { l.readers = append(l.readers, c) }

// Read invokes fn for every unread event with T <= upto, advancing the
// cursor past them. Events with T > upto remain unread — this is how u-RT
// algorithms are physically prevented from seeing the last u slots. It
// panics if events c has not read were already dropped (c was not
// registered before they were appended).
func (l *Log) Read(c *Cursor, upto cell.Time, fn func(Event)) {
	if c.idx < l.base {
		panic(fmt.Sprintf("demux: log cursor at event %d is behind the retained log (events before %d were dropped)", c.idx, l.base))
	}
	for c.idx-l.base < len(l.events) && l.events[c.idx-l.base].T <= upto {
		fn(l.events[c.idx-l.base])
		c.idx++
	}
}

// pickFree scans planes cyclically from start and returns the first plane
// whose input gate is free at t, or NoPlane if every gate is busy (which
// the input constraint makes impossible when K >= r', since at most r'-1
// gates can be busy... per transmission; the fabric still checks).
func pickFree(env Env, in cell.Port, t cell.Time, start cell.Plane, allowed func(cell.Plane) bool) cell.Plane {
	k := env.Planes()
	for d := 0; d < k; d++ {
		p := cell.Plane((int(start) + d) % k)
		if allowed != nil && !allowed(p) {
			continue
		}
		if env.InputGateFreeAt(in, p) <= t {
			return p
		}
	}
	return cell.NoPlane
}
