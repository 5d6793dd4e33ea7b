package harness

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ppsim/internal/cell"
	"ppsim/internal/fabric"
	"ppsim/internal/traffic"
)

// matchSteppedConcurrently starts w runs of one workload at once, each on
// its own goroutine with its own fabric and source, cycling through
// variants, and reports each Result that is not deeply equal to stepped, the
// forced-stepped oracle. Independent simulations share no mutable state —
// ppsim.RunSweep relies on that to spread sweep points over every core — so
// no run may differ by a bit however many run beside it, and under -race any
// state they did share shows up as a data race. w = 0 makes one run of
// variants[0] on the test goroutine itself. run is called off the test
// goroutine, so it must report errors with t.Errorf, never t.Fatalf.
func matchSteppedConcurrently(t *testing.T, stepped Result, w int, variants []engineVariant, run func(eng Engine, ff bool) Result) {
	t.Helper()
	got := make([]Result, max(w, 1))
	if w == 0 {
		got[0] = run(variants[0].eng, variants[0].ff)
	} else {
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				v := variants[i%len(variants)]
				got[i] = run(v.eng, v.ff)
			}(i)
		}
		wg.Wait()
	}
	for i, res := range got {
		if v := variants[i%len(variants)]; !reflect.DeepEqual(stripEngine(stepped), stripEngine(res)) {
			t.Errorf("run %d of %d (%s) diverges from stepped\nstepped: %+v\n%s: %+v", i+1, len(got), v.name, stepped, v.name, res)
		}
	}
}

// TestParallelMatchesSerialMatrix is the determinism contract of running
// simulations side by side, as ppsim.RunSweep does: for every registered
// algorithm and several port counts, each of w concurrent runs (w = 1, 2, 4,
// 8, cycling through the fast-forward, event-driven and auto cores) must
// produce a Result bit-identical to the serial forced-stepped run. Any
// divergence — one cell departing a slot earlier, one tie broken
// differently — fails DeepEqual.
func TestParallelMatchesSerialMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full equivalence matrix skipped in -short mode")
	}
	for _, n := range []int{8, 32, 128} {
		horizon := cell.Time(256)
		if n == 128 {
			horizon = 128 // keep the matrix cheap at the widest port count
		}
		cfg := fabric.Config{N: n, K: 4, RPrime: 2, BufferCap: -1, CheckInvariants: true}
		for _, alg := range matrixAlgs {
			run := func(eng Engine, ff bool) Result {
				src := traffic.NewBernoulli(n, 0.6, horizon, 11)
				res, err := Run(cfg, alg.mk, src,
					Options{Validate: true, Utilization: true, Engine: eng, FastForward: ff})
				if err != nil {
					t.Errorf("%s n=%d engine=%v ff=%v: %v", alg.name, n, eng, ff, err)
				}
				return res
			}
			serial := run(EngineStepped, false)
			if serial.Report.Cells == 0 {
				t.Fatalf("%s n=%d: empty serial run", alg.name, n)
			}
			for _, w := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("%s/n%d/w%d", alg.name, n, w), func(t *testing.T) {
					matchSteppedConcurrently(t, serial, w, engineVariants, run)
				})
			}
		}
	}
}
