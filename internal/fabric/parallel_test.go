package fabric

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/traffic"
)

// concurrently calls f on w goroutines at once and returns the results in
// goroutine order. Fabrics share no mutable state — ppsim.RunSweep relies on
// that to run sweep points side by side — so a fabric stepped beside others
// must behave exactly like one stepped alone, and under -race any state they
// did share is reported as a data race.
func concurrently[T any](w int, f func() T) []T {
	out := make([]T, w)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = f()
		}(i)
	}
	wg.Wait()
	return out
}

// armedTrace is what an armed-log run observes: each slot's departures,
// the global event log, and the first Step error.
type armedTrace struct {
	deps   [][]cell.Cell
	events []demux.Event
	err    error
}

// armedRun steps a fresh round-robin fabric, its global event log armed
// before the first Step, through seeded Bernoulli traffic until it drains.
func armedRun() (tr armedTrace) {
	const n, horizon = 16, 400
	p, err := New(Config{N: n, K: 4, RPrime: 2, CheckInvariants: true}, rrFactory(demux.PerInput))
	if err != nil {
		return armedTrace{err: err}
	}
	log := p.Log()
	src := traffic.NewBernoulli(n, 0.7, horizon, 3)
	st := cell.NewStamper()
	var buf []traffic.Arrival
	for slot := cell.Time(0); (slot < horizon || !p.Drained()) && slot < 2*horizon; slot++ {
		buf = src.Arrivals(slot, buf[:0])
		cells := make([]cell.Cell, 0, len(buf))
		for _, a := range buf {
			cells = append(cells, st.Stamp(cell.Flow{In: a.In, Out: a.Out}, slot))
		}
		deps, err := p.Step(slot, cells, nil)
		if err != nil {
			return armedTrace{err: err}
		}
		tr.deps = append(tr.deps, deps)
	}
	if !p.Drained() {
		return armedTrace{err: errors.New("fabric did not drain")}
	}
	var c demux.Cursor
	log.Read(&c, cell.Time(1<<40), func(e demux.Event) { tr.events = append(tr.events, e) })
	return tr
}

// TestParallelStepMatchesSerialWithArmedLog steps 1, 2, 3, 5 and 16 fabrics
// at once, each with its global event log armed, and checks that every one
// reproduces a serial run of the same traffic slot by slot: identical
// departures and an identical event log, in order.
func TestParallelStepMatchesSerialWithArmedLog(t *testing.T) {
	serial := armedRun()
	if serial.err != nil || len(serial.events) == 0 {
		t.Fatalf("serial run: %d events, err %v", len(serial.events), serial.err)
	}
	for _, w := range []int{1, 2, 3, 5, 16} {
		for i, par := range concurrently(w, armedRun) {
			if !reflect.DeepEqual(serial, par) {
				t.Errorf("w=%d: fabric %d diverges from the serial run (%d vs %d events, err %v)",
					w, i, len(par.events), len(serial.events), par.err)
			}
		}
	}
}

// TestCloseFallsBackToSerial checks the deprecated stage-parallel stubs: a
// fabric reports no workers and no shards, Close is idempotent, and a closed
// fabric keeps stepping serially until it drains.
func TestCloseFallsBackToSerial(t *testing.T) {
	p, err := New(Config{N: 8, K: 2, RPrime: 2}, rrFactory(demux.PerInput))
	if err != nil {
		t.Fatal(err)
	}
	if p.Workers() != 0 || p.ShardPorts() != nil {
		t.Fatalf("Workers() = %d, ShardPorts() = %v; want 0, nil", p.Workers(), p.ShardPorts())
	}
	p.Close()
	p.Close() // idempotent
	cells := []cell.Cell{cell.New(0, 0, cell.Flow{In: 1, Out: 2}, 0)}
	deps, err := p.Step(0, cells, nil)
	if err != nil {
		t.Fatal(err)
	}
	for slot := cell.Time(1); !p.Drained(); slot++ {
		if deps, err = p.Step(slot, nil, deps[:0]); err != nil {
			t.Fatal(err)
		}
	}
	if p.Departed() != 1 {
		t.Fatalf("departed %d cells after Close, want 1", p.Departed())
	}
}

// TestParallelRefereeStillCatchesOverclaimedBuffer checks that the stage-3
// buffer audit reports the same violation in fabrics stepped at once on
// separate goroutines as in one stepped alone.
func TestParallelRefereeStillCatchesOverclaimedBuffer(t *testing.T) {
	step := func() error {
		p, err := New(Config{N: 8, K: 2, RPrime: 2},
			func(e demux.Env) (demux.Algorithm, error) { return &overclaimAlg{}, nil })
		if err != nil {
			return err
		}
		_, err = p.Step(0, nil, nil)
		return err
	}
	serialErr := step()
	if serialErr == nil {
		t.Fatal("overclaimed buffer must error")
	}
	for i, parErr := range concurrently(4, step) {
		if parErr == nil || parErr.Error() != serialErr.Error() {
			t.Errorf("fabric %d: violation diverges:\nserial:   %v\nparallel: %v", i, serialErr, parErr)
		}
	}
}

// overclaimAlg reports phantom buffered cells at every input; the audit
// must flag input 0 first.
type overclaimAlg struct{}

func (*overclaimAlg) Name() string                                      { return "overclaim" }
func (*overclaimAlg) Slot(cell.Time, []cell.Cell) ([]demux.Send, error) { return nil, nil }
func (*overclaimAlg) Buffered(cell.Port) int                            { return 1 }
