// Command ppsviz renders a textual timeline of the center stage: one row
// per plane, one column per sampled slot, glyph height = that plane's total
// backlog. Concentration — the mechanism behind every lower bound in the
// paper — is immediately visible as a single hot row.
//
//	ppsviz -n 32 -k 4 -alg rr -traffic steering
//	ppsviz -n 16 -k 8 -alg cpa -traffic bernoulli -load 0.9
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/fabric"
	"ppsim/internal/traffic"
)

var glyphs = []rune(" .:-=+*#%@")

func main() {
	var (
		n      = flag.Int("n", 32, "external ports N")
		k      = flag.Int("k", 4, "center-stage planes K")
		rprime = flag.Int64("rprime", 2, "internal line occupancy r'")
		alg    = flag.String("alg", "rr", "algorithm: rr, perflow-rr, cpa, stale-cpa, random, least-loaded")
		u      = flag.Int64("u", 4, "staleness for stale-cpa")
		kind   = flag.String("traffic", "steering", "traffic: steering, concentration, bernoulli, flood")
		load   = flag.Float64("load", 0.6, "load (bernoulli)")
		slots  = flag.Int64("slots", 0, "horizon; 0 = auto")
		width  = flag.Int("width", 100, "timeline columns")
		seed   = flag.Int64("seed", 1, "seed")
	)
	flag.Parse()
	if err := validateLoad(*load); err != nil {
		fmt.Fprintln(os.Stderr, "ppsviz:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*n, *k, *rprime, *alg, *u, *kind, *load, *slots, *width, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "ppsviz:", err)
		os.Exit(1)
	}
}

// validateLoad rejects a -load outside [0,1] (or NaN) at parse time, before
// it reaches traffic.NewBernoulli's panic.
func validateLoad(load float64) error {
	if !(load >= 0 && load <= 1) {
		return fmt.Errorf("-load must be in [0,1], got %v", load)
	}
	return nil
}

func run(n, k int, rprime int64, alg string, u int64, kind string, load float64, slots int64, width int, seed int64) error {
	if width < 1 {
		return fmt.Errorf("-width must be >= 1, got %d", width)
	}
	cfg := fabric.Config{N: n, K: k, RPrime: rprime, CheckInvariants: true}
	factory, err := pickAlg(alg, u, seed)
	if err != nil {
		return err
	}
	src, err := pickTraffic(cfg, factory, kind, load, cell.Time(slots), seed)
	if err != nil {
		return err
	}

	pps, err := fabric.New(cfg, factory)
	if err != nil {
		return err
	}
	end := src.End()
	if end == cell.None {
		return fmt.Errorf("traffic %q is unbounded; give -slots", kind)
	}
	// Run once to learn the drain time, sampling every slot.
	type sample []int // backlog per plane
	var samples []sample
	st := cell.NewStamper()
	var buf []traffic.Arrival
	var deps []cell.Cell
	for slot := cell.Time(0); ; slot++ {
		if slot >= end && pps.Drained() {
			break
		}
		if slot > end*16+1<<16 {
			return fmt.Errorf("switch did not drain")
		}
		var cells []cell.Cell
		if slot < end {
			buf = src.Arrivals(slot, buf[:0])
			for _, a := range buf {
				cells = append(cells, st.Stamp(cell.Flow{In: a.In, Out: a.Out}, slot))
			}
		}
		deps, err = pps.Step(slot, cells, deps[:0])
		if err != nil {
			return err
		}
		s := make(sample, k)
		for p := 0; p < k; p++ {
			s[p] = pps.Plane(cell.Plane(p)).Backlog()
		}
		samples = append(samples, s)
	}

	// Downsample to the terminal width; each column shows the max backlog
	// in its slot bucket.
	total := len(samples)
	if width > total {
		width = total
	}
	cols := make([][]int, width)
	maxAll := 1
	for c := 0; c < width; c++ {
		lo, hi := c*total/width, (c+1)*total/width
		if hi == lo {
			hi = lo + 1
		}
		col := make([]int, k)
		for _, s := range samples[lo:hi] {
			for p, v := range s {
				if v > col[p] {
					col[p] = v
				}
			}
		}
		for _, v := range col {
			if v > maxAll {
				maxAll = v
			}
		}
		cols[c] = col
	}

	fmt.Printf("plane backlog over %d slots (columns = %d-slot buckets, peak %d cells)\n",
		total, (total+width-1)/width, maxAll)
	for p := 0; p < k; p++ {
		var b strings.Builder
		for c := 0; c < width; c++ {
			g := cols[c][p] * (len(glyphs) - 1) / maxAll
			b.WriteRune(glyphs[g])
		}
		fmt.Printf("plane %2d |%s|\n", p, b.String())
	}
	fmt.Printf("scale: '%c' empty ... '%c' = %d cells\n", glyphs[0], glyphs[len(glyphs)-1], maxAll)
	return nil
}

func pickAlg(alg string, u, seed int64) (func(demux.Env) (demux.Algorithm, error), error) {
	switch alg {
	case "rr":
		return func(e demux.Env) (demux.Algorithm, error) { return demux.NewRoundRobin(e, demux.PerInput) }, nil
	case "perflow-rr":
		return func(e demux.Env) (demux.Algorithm, error) { return demux.NewRoundRobin(e, demux.PerFlow) }, nil
	case "cpa":
		return func(e demux.Env) (demux.Algorithm, error) { return demux.NewCPA(e, demux.MinAvail) }, nil
	case "stale-cpa":
		return func(e demux.Env) (demux.Algorithm, error) { return demux.NewStaleCPA(e, cell.Time(u)) }, nil
	case "random":
		return func(e demux.Env) (demux.Algorithm, error) { return demux.NewRandom(e, seed) }, nil
	case "least-loaded":
		return func(e demux.Env) (demux.Algorithm, error) { return demux.NewLocalLeastLoaded(e) }, nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q", alg)
	}
}

func pickTraffic(cfg fabric.Config, factory func(demux.Env) (demux.Algorithm, error), kind string, load float64, slots cell.Time, seed int64) (traffic.Source, error) {
	n := cfg.N
	if slots <= 0 {
		slots = 400
	}
	switch kind {
	case "steering":
		inputs := make([]cell.Port, n)
		for i := range inputs {
			inputs[i] = cell.Port(i)
		}
		return steeringOrErr(cfg, factory, inputs, seed)
	case "concentration":
		tr := traffic.NewTrace()
		for i := 0; i < n; i++ {
			tr.MustAdd(cell.Time(i), cell.Port(i), 0)
		}
		return tr, nil
	case "bernoulli":
		return traffic.NewBernoulli(n, load, slots, seed), nil
	case "flood":
		return &traffic.Flood{N: n, Out: 0, Until: slots / 4}, nil
	default:
		return nil, fmt.Errorf("unknown traffic %q", kind)
	}
}

func steeringOrErr(cfg fabric.Config, factory func(demux.Env) (demux.Algorithm, error), inputs []cell.Port, seed int64) (traffic.Source, error) {
	// Local import cycle avoidance: adversary lives beside us.
	return buildSteering(cfg, factory, inputs, seed)
}
