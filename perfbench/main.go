// Command perfbench is ppsim's benchmark. It runs one named workload per
// invocation as a closed batch job — set up, drive to drain, repeat back to
// back for the given number of seconds — and prints, as its last line, one
// JSON object with the run's correctness verdict and its metrics: the
// end-to-end metrics with --trace 0, the per-layer metrics of a traced run
// with --trace 1. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	"ppsim/internal/harness"
	"ppsim/internal/obs"
)

const (
	// setupRounds is how many extra set-ups are timed before the first
	// drive; setup_s is the median over these and every rep's own set-up.
	setupRounds = 25
	// minReps is the fewest measured drives (or untraced/traced pairs) a
	// run makes, however short --seconds is.
	minReps = 3
	// samplePeriod is the executed-slot period at which the traced run
	// times sub-microsecond calls.
	samplePeriod = 4
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: loaded-n1024, sparse-long or stale-overload")
	seed := fs.Int64("seed", 0, "traffic seed (default: the workload's default seed)")
	seconds := fs.Float64("seconds", 10, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	cpuprofile := fs.String("cpuprofile", "", "after measuring, profile untraced drives for --seconds more and write the CPU profile to this file")
	gen := fs.String("gen-digests", "", "print the referee digest table for the default and held-out seeds plus these comma-separated seeds, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *gen != "" {
		return genDigests(*gen, stdout, stderr)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	s := w.defaultSeed
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			s = *seed
		}
	})
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	host, err := json.Marshal(fingerprint())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "host %s\n", host)
	fmt.Fprintf(stdout, "workload %s seed %d trace %d seconds %g\n", w.name, s, *trace, *seconds)

	b, err := newBench(w, s, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	budget := int64(*seconds * 1e9)
	var vals map[string]float64
	if *trace == 0 {
		vals, err = b.endToEnd(budget)
	} else {
		vals, err = b.layers(budget)
	}
	if err == nil && *cpuprofile != "" {
		err = b.profile(*cpuprofile, budget)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	refErr := b.chk.finish()
	if refErr != nil {
		fmt.Fprintln(stderr, "perfbench: referee:", refErr)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	line, err := resultLine(b.chk, refErr == nil, defs, vals)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-34s %18.6g %s\n", d.name, vals[d.name], d.unit)
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// resultLine renders the final JSON object. Metric keys follow defs order.
func resultLine(chk *checker, refOK bool, defs []metricDef, vals map[string]float64) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`,
		refOK && chk.failed == 0, chk.attempted, chk.failed)
	for i, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s has no finite value", d.name)
		}
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
	}
	b.WriteString("}}")
	return b.String(), nil
}

func genDigests(list string, stdout, stderr io.Writer) int {
	var extra []int64
	for _, f := range strings.Split(list, ",") {
		if f = strings.TrimSpace(f); f == "" || f == "none" {
			continue
		}
		s, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: --gen-digests:", err)
			return 2
		}
		extra = append(extra, s)
	}
	f, err := generateDigests(extra, func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) })
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// checker holds one invocation's output checks. A drive fails when it
// returns an error, reports another engine than the workload declares,
// breaks a conservation identity, or its digest differs from the referee's:
// the committed digest when the seed has one, otherwise a referee run made
// in-process after the measurement (finish).
type checker struct {
	w       workload
	seed    int64
	want    string
	known   bool
	pending []string
	log     io.Writer

	attempted, failed int
}

// check records one drive's outcome and reports whether it passed.
func (c *checker) check(what string, res harness.Result, err error) bool {
	c.attempted++
	reason := ""
	switch {
	case err != nil:
		reason = err.Error()
	case res.Engine != c.w.engine:
		reason = fmt.Sprintf("engine %s, workload declares %s (%s)", res.Engine, c.w.engine, res.EngineReason)
	default:
		if off, adm := conserved(res.Report); !off || !adm {
			reason = "conservation identity broken"
			break
		}
		d, derr := digest(res)
		switch {
		case derr != nil:
			reason = derr.Error()
		case c.known && d != c.want:
			reason = fmt.Sprintf("digest %s, referee %s", d, c.want)
		case !c.known:
			c.pending = append(c.pending, d)
		}
	}
	if reason != "" {
		c.failed++
		fmt.Fprintf(c.log, "FAILED %s %s seed %d: %s\n", what, c.w.name, c.seed, reason)
		return false
	}
	return true
}

// fail counts an attempted run that failed a check made outside check.
func (c *checker) fail(what, reason string) {
	c.failed++
	fmt.Fprintf(c.log, "FAILED %s %s seed %d: %s\n", what, c.w.name, c.seed, reason)
}

// finish compares the digests of seeds without a committed digest against
// an in-process referee run.
func (c *checker) finish() error {
	if c.known || len(c.pending) == 0 {
		return nil
	}
	ref, eng, err := refereeDigest(c.w, c.seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.log, "referee (%s) digest %s\n", eng, ref)
	for _, d := range c.pending {
		if d != ref {
			c.fail("drive", fmt.Sprintf("digest %s, referee %s", d, ref))
		}
	}
	c.pending = nil
	return nil
}

// bench runs one workload at one seed.
type bench struct {
	w    workload
	seed int64
	opts harness.Options
	chk  *checker
	log  io.Writer
}

func newBench(w workload, seed int64, log io.Writer) (*bench, error) {
	opts, err := w.options(harness.EngineAuto)
	if err != nil {
		return nil, err
	}
	want, known, err := knownDigest(w, seed)
	if err != nil {
		return nil, err
	}
	return &bench{w: w, seed: seed, opts: opts, log: log,
		chk: &checker{w: w, seed: seed, want: want, known: known, log: log}}, nil
}

// rep is one untraced set-up and drive.
type rep struct {
	res            harness.Result
	setupNs, drive int64
	allocBytes     uint64
}

// drive makes one rep from a collected heap, as a fresh process would start.
func (b *bench) drive() (rep, error) {
	runtime.GC()
	t0 := now()
	src, pps, err := b.w.setup(b.seed, nil, nil)
	setup := now() - t0
	if err != nil {
		return rep{}, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := now()
	res, err := harness.Drive(pps, src, b.opts)
	d := now() - t1
	runtime.ReadMemStats(&m1)
	b.chk.check("drive", res, err)
	return rep{res: res, setupNs: setup, drive: d, allocBytes: m1.TotalAlloc - m0.TotalAlloc}, nil
}

// endToEnd measures the untraced metrics: repeated drives for budget
// nanoseconds after extra set-up rounds and one warm-up drive.
func (b *bench) endToEnd(budget int64) (map[string]float64, error) {
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		t0 := now()
		_, pps, err := b.w.setup(b.seed, nil, nil)
		setups = append(setups, float64(now()-t0)/1e9)
		if err != nil {
			return nil, err
		}
		pps.Close()
	}
	if _, err := b.drive(); err != nil {
		return nil, err
	}
	var cells, slots, alloc []float64
	deadline := now() + budget
	for i := 0; i < minReps || now() < deadline; i++ {
		r, err := b.drive()
		if err != nil {
			return nil, err
		}
		setups = append(setups, float64(r.setupNs)/1e9)
		if r.res.Report.Cells == 0 {
			continue // the drive returned an error; check counted it
		}
		sec := float64(r.drive) / 1e9
		n := float64(r.res.Report.Cells)
		cells = append(cells, n/sec)
		slots = append(slots, float64(r.res.Slots)/sec)
		alloc = append(alloc, float64(r.allocBytes)/n)
		fmt.Fprintf(b.log, "drive %d: %.4fs %d cells %d slots %s\n", i, sec, r.res.Report.Cells, r.res.Slots, r.res.Engine)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"cells_per_s":          median(cells),
		"slots_per_s":          median(slots),
		"setup_s":              median(setups),
		"peak_rss_mb":          rss,
		"alloc_bytes_per_cell": median(alloc),
	}, nil
}

// layers alternates untraced drives with traced runs for budget nanoseconds
// and derives the per-layer metrics from the traced runs.
func (b *bench) layers(budget int64) (map[string]float64, error) {
	cost := calibrate()
	fmt.Fprintf(b.log, "clock span cost: %.1f ticks measured inside, %.1f ticks total\n", cost.inside, cost.total)
	if _, err := b.drive(); err != nil {
		return nil, err
	}
	var (
		runs     []tracedRun
		untraced []float64
	)
	deadline := now() + budget
	for i := 0; i < minReps || now() < deadline; i++ {
		u, err := b.drive()
		if err != nil {
			return nil, err
		}
		tr, err := traceDrive(b.w, b.seed, b.opts, samplePeriod)
		if b.chk.check("traced", tr.res, err) &&
			(!reflect.DeepEqual(tr.res.Report, u.res.Report) || tr.res.Slots != u.res.Slots || tr.res.Engine != u.res.Engine) {
			b.chk.fail("traced", "Report, Slots or engine differ from the untraced drive")
		}
		if err != nil || u.res.Report.Cells == 0 {
			continue // an error; check counted it
		}
		runs = append(runs, tr)
		untraced = append(untraced, float64(u.drive))
		fmt.Fprintf(b.log, "pair %d: untraced %.4fs traced %.4fs\n", i, float64(u.drive)/1e9, float64(tr.wallNs)/1e9)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("every traced or untraced drive returned an error")
	}
	return layerMetrics(runs, cost, untraced), nil
}

// layerMetrics aggregates the traced runs: times are summed over runs and
// divided by the summed work, counts are taken from the first run (every run
// of a seed does identical work). untraced holds the untraced drive times
// paired with the runs.
func layerMetrics(runs []tracedRun, cost clockCost, untraced []float64) map[string]float64 {
	var self [numLayers]float64
	var wallNs, wallTicks, gcCPU float64
	var wall, retained, gcs []float64
	var slotTicks obs.LogHist
	for _, r := range runs {
		nsPerTick := float64(r.wallNs) / float64(r.wallTicks)
		s := r.sp.self(cost)
		for l := range self {
			self[l] += s[l] * nsPerTick
		}
		wallNs += float64(r.wallNs)
		wallTicks += float64(r.wallTicks)
		wall = append(wall, float64(r.wallNs))
		retained = append(retained, float64(r.retained))
		gcs = append(gcs, float64(r.gcCycles))
		gcCPU += r.gcCPUSeconds
		slotTicks.Merge(&r.sp.slotTicks)
	}
	nsPerTick := wallNs / wallTicks
	n := float64(len(runs))
	first := runs[0]
	sp, rep := first.sp, first.res.Report
	cells := float64(rep.Cells)
	per := func(l layer, units int64) float64 { return ratio(self[l], n*float64(units)) }
	residual := wallNs
	for _, v := range self {
		residual -= v
	}
	m := map[string]float64{
		"traffic.calls":                   float64(sp.trafficCalls),
		"traffic.arrivals":                float64(sp.arrivals),
		"traffic.self_ns_per_arrival":     per(lTraffic, sp.arrivals),
		"admission.decisions":             float64(sp.admissionCalls),
		"admission.admit_ratio":           ratio(float64(rep.Admitted), float64(rep.Offered)),
		"admission.self_ns_per_decision":  per(lAdmission, sp.admissionCalls),
		"cell.stamps":                     float64(sp.stamps),
		"cell.self_ns_per_stamp":          per(lCell, sp.stamps),
		"demux.slot_calls":                float64(sp.demuxSlotCalls),
		"demux.sends":                     float64(sp.sends),
		"demux.sends_per_call":            ratio(float64(sp.sends), float64(sp.demuxSlotCalls)),
		"demux.self_ns_per_send":          per(lDemux, sp.sends),
		"demux.log_events":                float64(first.logEvents),
		"mux.pull_calls":                  float64(sp.muxPullCalls),
		"mux.cells_pulled":                float64(sp.cellsPulled),
		"mux.pull_yield":                  ratio(float64(sp.muxProductive), float64(sp.muxPullCalls)),
		"mux.self_ns_per_cell":            ratio(self[lMux], n*cells),
		"fabric.step_calls":               float64(sp.fabricCalls),
		"fabric.departures":               float64(sp.departures),
		"fabric.self_ns_per_cell":         ratio(self[lFabric], n*cells),
		"shadow.step_calls":               float64(sp.shadowCalls),
		"shadow.self_ns_per_cell":         ratio(self[lShadow], n*cells),
		"metrics.calls":                   float64(sp.metricsCalls),
		"metrics.self_ns_per_cell":        ratio(self[lMetrics], n*cells),
		"harness.executed_slots":          float64(sp.executed),
		"harness.elided_ratio":            ratio(float64(int64(first.res.Slots)-sp.executed), float64(first.res.Slots)),
		"harness.slot_ns_p50":             float64(slotTicks.Quantile(50)) * nsPerTick,
		"harness.slot_ns_p99":             float64(slotTicks.Quantile(99)) * nsPerTick,
		"harness.slot_ns_samples":         float64(slotTicks.N()),
		"harness.self_share":              residual / wallNs,
		"harness.retained_bytes_per_cell": ratio(median(retained), cells),
		"runtime.gc_cpu_frac":             gcCPU * 1e9 / wallNs,
		"runtime.gc_cycles":               median(gcs),
		"trace.overhead_frac":             (median(wall) - median(untraced)) / median(untraced),
	}
	for l, name := range layerNames {
		m[name+".share"] = self[l] / wallNs
	}
	return m
}

// profile writes a CPU profile of untraced drives made for budget
// nanoseconds (at least one) to path.
func (b *bench) profile(path string, budget int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	deadline := now() + budget
	for i := 0; err == nil && (i == 0 || now() < deadline); i++ {
		_, err = b.drive()
	}
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ratio is a / b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// host is the machine fingerprint printed with every result.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

func fingerprint() host {
	h := host{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), CPUModel: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
