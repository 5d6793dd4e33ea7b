package main

import (
	"fmt"
	"sort"

	"ppsim/internal/admission"
	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/fabric"
	"ppsim/internal/harness"
	"ppsim/internal/mux"
	"ppsim/internal/traffic"
)

// workload is one closed batch job: a switch geometry, a demultiplexing
// algorithm, a seeded traffic source and an admission policy, run to drain
// through harness.Drive with the default configuration (conservation audit
// on, auto engine, serial).
type workload struct {
	name    string
	n, k    int
	rprime  int64
	alg     string // ppsim algorithm name, for the public-API cross-check
	u       cell.Time
	horizon cell.Time
	// maxSlots overrides harness.Options.MaxSlots when non-zero.
	maxSlots cell.Time
	// admission is the admission spec in the -admission grammar; "" is
	// always-admit.
	admission string
	// engine is the slot-execution core the run must report. A different
	// engine means the numbers are not comparable with earlier runs, so the
	// run counts as failed.
	engine string
	// readsLog marks algorithms that arm the fabric's global event log at
	// construction; only for those may the benchmark call PPS.Log().
	readsLog bool
	// defaultSeed is used when no seed is given; heldoutSeed is kept out of
	// tuning so a later claim can be confirmed on unseen inputs.
	defaultSeed, heldoutSeed int64
	// source builds the traffic for an n-port switch over [0, until).
	source func(n int, until cell.Time, seed int64) (traffic.Source, error)
}

var workloads = []workload{
	{
		name: "loaded-n1024", n: 1024, k: 8, rprime: 2, alg: "rr",
		horizon: 600, engine: "event",
		defaultSeed: 1, heldoutSeed: 9001,
		source: func(n int, until cell.Time, seed int64) (traffic.Source, error) {
			// Bursty on/off at mean load 0.6: mean on 8, mean off 8*0.4/0.6.
			const load, meanOn = 0.6, 8.0
			return traffic.NewOnOff(n, meanOn, meanOn*(1-load)/load, until, seed)
		},
	},
	{
		name: "sparse-long", n: 1024, k: 8, rprime: 2, alg: "rr",
		horizon: 2_000_000, maxSlots: 4_000_000, engine: "event",
		defaultSeed: 1, heldoutSeed: 9001,
		source: func(n int, until cell.Time, seed int64) (traffic.Source, error) {
			// Two concentrated on/off flows at per-flow load 0.05 on ports
			// [0, 2) of the switch.
			return traffic.NewOnOff(2, 8, 152, until, seed)
		},
	},
	{
		name: "stale-overload", n: 128, k: 8, rprime: 2, alg: "stale-cpa", u: 8,
		horizon: 5000, admission: "rate:1/2,burst:16,deadline", engine: "stepped",
		readsLog:    true,
		defaultSeed: 1, heldoutSeed: 9001,
		source: func(n int, until cell.Time, seed int64) (traffic.Source, error) {
			src, err := traffic.NewHotspot(n, 0.9, 0.01, 0, until, seed)
			if err != nil {
				return nil, err
			}
			return traffic.WithDeadline(src, 128), nil
		},
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	sort.Strings(names)
	return workload{}, fmt.Errorf("unknown workload %q (one of %v)", name, names)
}

// factory returns the demux constructor, lowered the same way ppsim.Run
// lowers Config.Algorithm.
func (w workload) factory() func(demux.Env) (demux.Algorithm, error) {
	if w.alg == "stale-cpa" {
		u := w.u
		return func(e demux.Env) (demux.Algorithm, error) { return demux.NewStaleCPA(e, u) }
	}
	return func(e demux.Env) (demux.Algorithm, error) { return demux.NewRoundRobin(e, demux.PerInput) }
}

// config is the fabric configuration ppsim.Run builds from the default
// Config: bufferless, eager mux, conservation audit on, serial.
func (w workload) config() fabric.Config {
	return fabric.Config{N: w.n, K: w.k, RPrime: w.rprime, CheckInvariants: true}
}

// options returns the harness options ppsim.Run would pass for this
// workload, with the given engine request.
func (w workload) options(eng harness.Engine) (harness.Options, error) {
	opts := harness.Options{Utilization: true, MaxSlots: w.maxSlots, Engine: eng}
	if w.admission != "" {
		spec, err := admission.ParseSpec(w.admission)
		if err != nil {
			return opts, err
		}
		opts.Admission = spec
	}
	return opts, nil
}

// setup builds the source and the fabric: the work a user pays before slot
// 0. pol and wrap, when non-nil, inject the traced run's mux and demux
// decorators.
func (w workload) setup(seed int64, pol mux.Policy, wrap func(demux.Algorithm) demux.Algorithm) (traffic.Source, *fabric.PPS, error) {
	src, err := w.source(w.n, w.horizon, seed)
	if err != nil {
		return nil, nil, err
	}
	cfg := w.config()
	cfg.Mux = pol
	factory := w.factory()
	if wrap != nil {
		inner := factory
		factory = func(e demux.Env) (demux.Algorithm, error) {
			a, err := inner(e)
			if err != nil {
				return nil, err
			}
			return wrap(a), nil
		}
	}
	pps, err := fabric.New(cfg, factory)
	if err != nil {
		return nil, nil, err
	}
	return src, pps, nil
}
