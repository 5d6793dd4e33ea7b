package traffic

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"ppsim/internal/cell"
)

// lookaheadCases builds one bounded instance of every bundled generator that
// implements Lookahead. Each entry returns a fresh, identically-configured
// source per call so a lookahead-driven walk and a linear replay can run on
// independent twins.
func lookaheadCases(t *testing.T) []struct {
	name string
	mk   func() Source
} {
	t.Helper()
	const n, horizon = 6, 300
	mustOnOff := func() Source {
		src, err := NewOnOff(n, 3, 40, horizon, 9)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	mustPerm := func() Source {
		src, err := NewPermutation([]cell.Port{2, 0, 1, 5, 3, 4}, horizon)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	mustHotspot := func() Source {
		src, err := NewHotspot(n, 0.1, 0.7, 2, horizon, 13)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	mkTrace := func() *Trace {
		tr := NewTrace()
		for _, s := range []cell.Time{0, 7, 8, 40, 41, 199} {
			tr.MustAdd(s, cell.Port(int(s)%n), cell.Port(int(s+1)%n))
		}
		return tr
	}
	mustConcat := func() Source {
		burst, err := NewPermutation([]cell.Port{1, 0}, 4)
		if err != nil {
			t.Fatal(err)
		}
		src, err := NewConcat(Part{Source: burst, GapAfter: 37}, Part{Source: mkTrace().Shift(0), GapAfter: 0})
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	mustBvN := func() Source {
		lambda := [][]float64{
			{0.30, 0.00, 0.10},
			{0.00, 0.25, 0.00},
			{0.05, 0.00, 0.20},
		}
		src, err := NewBvN(lambda, horizon, 0)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	mustReplayedTrace := func() Source {
		// The serialize round-trip: a trace marshalled to its canonical JSON
		// and decoded into a fresh replay source must answer NextArrival
		// like the original.
		data, err := json.Marshal(mkTrace())
		if err != nil {
			t.Fatal(err)
		}
		replay := NewTrace()
		if err := json.Unmarshal(data, replay); err != nil {
			t.Fatal(err)
		}
		return replay
	}
	return []struct {
		name string
		mk   func() Source
	}{
		{"cbr", func() Source {
			return &CBR{
				Flows:  []cell.Flow{{In: 0, Out: 3}, {In: 1, Out: 2}, {In: 4, Out: 4}},
				Period: 17,
				Phase:  []cell.Time{5, 0, 11},
				Until:  horizon,
			}
		}},
		{"bernoulli", func() Source { return NewBernoulli(n, 0.04, horizon, 7) }},
		{"bernoulli-zero-load", func() Source { return NewBernoulli(n, 0, horizon, 7) }},
		{"onoff", mustOnOff},
		{"permutation", mustPerm},
		{"hotspot", mustHotspot},
		{"flood", func() Source { return &Flood{N: n, Out: 1, Until: 5} }},
		{"trace", func() Source { return mkTrace() }},
		{"trace-replayed", mustReplayedTrace},
		{"concat", mustConcat},
		{"bvn", mustBvN},
		{"regulator", func() Source {
			burst, err := NewPermutation([]cell.Port{1, 0, 2}, 9)
			if err != nil {
				t.Fatal(err)
			}
			return NewRegulator(3, 1, burst)
		}},
		{"regulator-bernoulli", func() Source {
			return NewRegulator(n, 2, NewBernoulli(n, 0.05, 120, 21))
		}},
	}
}

// scanLinear replays src slot by slot through limit and returns the arrivals
// of every non-empty slot, in order.
func scanLinear(src Source, limit cell.Time) (slots []cell.Time, content [][]Arrival) {
	var buf []Arrival
	for t := cell.Time(0); t < limit; t++ {
		buf = src.Arrivals(t, buf[:0])
		if len(buf) > 0 {
			slots = append(slots, t)
			content = append(content, append([]Arrival(nil), buf...))
		}
	}
	return slots, content
}

// TestLookaheadAgreesWithLinearScan is the Lookahead contract, checked per
// bundled generator: walking a source with the engine's peek-then-consume
// pattern (NextArrival, then Arrivals on the returned slot) must visit
// exactly the non-empty slots a slot-by-slot replay of an identical twin
// visits, with identical cells, and report None (or a slot past the scan
// limit, for shaped sources whose backlog outlives it) afterwards.
func TestLookaheadAgreesWithLinearScan(t *testing.T) {
	const limit = 400
	for _, tc := range lookaheadCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			wantSlots, wantContent := scanLinear(tc.mk(), limit)

			src := tc.mk()
			look, ok := src.(Lookahead)
			if !ok {
				t.Fatalf("%T does not implement Lookahead", src)
			}
			after := cell.Time(-1)
			var buf []Arrival
			for i := 0; ; i++ {
				na := look.NextArrival(after)
				if na == cell.None || na >= limit {
					if i != len(wantSlots) {
						t.Fatalf("lookahead walk ended after %d non-empty slots (next=%d), linear scan found %d", i, na, len(wantSlots))
					}
					break
				}
				if i >= len(wantSlots) {
					t.Fatalf("NextArrival(%d) = %d, but the linear scan has no non-empty slot left before %d", after, na, limit)
				}
				if na != wantSlots[i] {
					t.Fatalf("NextArrival(%d) = %d, linear scan says next non-empty slot is %d", after, na, wantSlots[i])
				}
				buf = src.Arrivals(na, buf[:0])
				if !reflect.DeepEqual(append([]Arrival(nil), buf...), wantContent[i]) {
					t.Fatalf("slot %d: lookahead twin delivers %v, linear twin %v", na, buf, wantContent[i])
				}
				after = na
			}
		})
	}
}

// TestLookaheadInterleavesWithStepping checks the other consumption pattern
// the engine uses: stepping silent slots one by one (the drain slots after a
// burst query Arrivals for slots the lookahead may already have proved
// empty — via the harness they are simply skipped, but a partial jump leaves
// a mix).
// Querying NextArrival between ordinary consecutive Arrivals calls must not
// perturb the stream.
func TestLookaheadInterleavesWithStepping(t *testing.T) {
	const limit = 400
	for _, tc := range lookaheadCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			wantSlots, wantContent := scanLinear(tc.mk(), limit)
			want := make(map[cell.Time][]Arrival, len(wantSlots))
			for i, s := range wantSlots {
				want[s] = wantContent[i]
			}

			src := tc.mk()
			look := src.(Lookahead)
			var buf []Arrival
			for t2 := cell.Time(0); t2 < limit; t2++ {
				// Peek every 7 slots; the answer must never contradict the
				// linear reference, and consuming through it must too.
				if t2%7 == 0 {
					na := look.NextArrival(t2 - 1)
					wantNext := cell.None
					for _, s := range wantSlots {
						if s >= t2 {
							wantNext = s
							break
						}
					}
					if wantNext == cell.None {
						if na != cell.None && na < limit {
							t.Fatalf("NextArrival(%d) = %d, want none before %d", t2-1, na, limit)
						}
					} else if na != wantNext {
						t.Fatalf("NextArrival(%d) = %d, want %d", t2-1, na, wantNext)
					}
				}
				buf = src.Arrivals(t2, buf[:0])
				if got, wantA := append([]Arrival(nil), buf...), want[t2]; !reflect.DeepEqual(got, wantA) {
					t.Fatalf("slot %d: got %v, want %v", t2, got, wantA)
				}
			}
		})
	}
}

// TestLookaheadBufferPanicsOnSkippedSlot pins the misuse guard: querying
// NextArrival past a buffered, unconsumed arrival slot would silently lose
// cells, so it must panic instead.
func TestLookaheadBufferPanicsOnSkippedSlot(t *testing.T) {
	src := NewBernoulli(4, 0.5, 100, 3)
	na := src.NextArrival(-1)
	if na == cell.None {
		t.Fatal("expected an arrival at load 0.5")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic when NextArrival skips the buffered slot")
		}
	}()
	src.NextArrival(na) // skips the buffered, unconsumed slot na
}

func ExampleLookahead() {
	src := &CBR{Flows: []cell.Flow{{In: 0, Out: 1}}, Period: 50, Until: 200}
	fmt.Println(src.NextArrival(-1), src.NextArrival(0), src.NextArrival(149))
	// Output: 0 50 150
}

// muteSource is an unbounded source that never emits and offers no
// Lookahead — the pathological inner source for the Regulator scan cap: it
// cannot be proved silent, so before the cap existed NextArrival scanned
// forward forever.
type muteSource struct{}

func (muteSource) Arrivals(t cell.Time, dst []Arrival) []Arrival { return dst }
func (muteSource) End() cell.Time                                { return cell.None }

// TestRegulatorNextArrivalScanCap pins the bounded-scan contract: over an
// unbounded, lookahead-less, never-emitting inner source with an empty
// shaping backlog, NextArrival answers cell.None after at most
// RegulatorScanHorizon scanned slots instead of hanging. A finite (non-cap)
// exit on the same shape — a bounded End — must still answer exactly.
func TestRegulatorNextArrivalScanCap(t *testing.T) {
	r := NewRegulator(4, 2, muteSource{})
	if na := r.NextArrival(-1); na != cell.None {
		t.Errorf("NextArrival(-1) = %d over a mute unbounded source, want none", na)
	}
	// The cap is relative to `after`, so a later query is bounded too.
	if na := r.NextArrival(1000); na != cell.None {
		t.Errorf("NextArrival(1000) = %d over a mute unbounded source, want none", na)
	}
}
