// Command ppsbench runs the repository's fixed benchmark suite — bursty,
// uniform and adversarial traffic at N in {8, 32, 128} and K in {2, 8},
// plus bursty large-N cases at N in {512, 1024} — and writes a
// machine-readable BENCH_<rev>.json next to the working directory. The
// committed BENCH_*.json files seed the repo's perf trajectory: every PR
// that claims a speedup re-runs the suite and compares slots/sec,
// cells/sec, allocs/slot, and tail delay (p99/p999 relative queuing delay)
// against the checked-in baseline (see the "Benchmarking" section of
// README.md). With -compare, cases whose throughput (slots/sec or
// cells/sec) drops or whose tail grows beyond -gate percent are flagged,
// and so is a case whose engine differs from the baseline's (not
// comparable); -gate-strict turns the flag into a non-zero exit. -count R
// runs every case R times and reports the fastest repeat (measurements are
// deterministic across repeats, so only the wall-clock figures differ —
// min wall is the least scheduler-noise estimate).
//
// Examples:
//
//	ppsbench -rev pr2-after              # full suite, BENCH_pr2-after.json
//	ppsbench -quick -rev ci -out bench   # short suite for CI artifacts
//	ppsbench -filter bursty/n128         # one case, JSON to stdout too
//	ppsbench -count 3                    # min-of-3, default engine
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"ppsim"
)

// benchCase is one cell of the fixed suite matrix.
type benchCase struct {
	Name    string `json:"name"`
	Traffic string `json:"traffic"`
	N       int    `json:"n"`
	K       int    `json:"k"`
	RPrime  int64  `json:"rprime"`
	Slots   int64  `json:"horizon_slots"`
	Seed    int64  `json:"seed"`
}

// benchResult is the measured outcome of one case.
type benchResult struct {
	benchCase
	RunSlots      int64   `json:"run_slots"`
	Cells         uint64  `json:"cells"`
	WallSeconds   float64 `json:"wall_seconds"`
	SlotsPerSec   float64 `json:"slots_per_sec"`
	CellsPerSec   float64 `json:"cells_per_sec"`
	AllocsPerSlot float64 `json:"allocs_per_slot"`
	BytesPerSlot  float64 `json:"bytes_per_slot"`
	MaxRQD        int64   `json:"max_rqd"`
	// Drops counts cells lost to injected plane faults (DropCount policy);
	// absent in fault-free runs.
	Drops uint64 `json:"drops,omitempty"`
	// SlotsElided counts the slots the quiescence fast-forward or the
	// event-driven core jumped over; absent for stepped runs, so older files
	// read (and diff) unchanged.
	SlotsElided uint64 `json:"slots_elided,omitempty"`
	// Engine records which slot-execution core actually ran this case
	// ("stepped", "fastforward", "event"); EngineReason is non-empty when a
	// requested core degraded and says why. Both absent in files written
	// before the fields existed (those runs were stepped). -compare flags a
	// case whose engine differs from the baseline's: its numbers are not
	// comparable.
	Engine       string `json:"engine,omitempty"`
	EngineReason string `json:"engine_reason,omitempty"`
	// Percentiles is the per-component delay decomposition tail block
	// (hist-derived nearest-rank quantiles: rqd, demux_wait, plane_wait,
	// reseq_wait, total_delay, interdeparture_gap). Pointer + omitempty
	// keeps files written before the field existed readable and diffable;
	// -compare treats an absent block as "no tail data".
	Percentiles *ppsim.DelayQuantiles `json:"percentiles,omitempty"`
	// Admitted/Rejected/Expired and the goodput / on-time-fraction figures
	// record the admission-policy outcome of the run. All absent when no
	// -admission / -deadline policy was active, so policy-free files stay
	// byte-identical to the pre-schema layout; -compare renders goodput and
	// on-time columns (warn-only, never gated) when either side has them.
	Admitted       uint64  `json:"admitted,omitempty"`
	Rejected       uint64  `json:"rejected,omitempty"`
	Expired        uint64  `json:"expired,omitempty"`
	Goodput        float64 `json:"goodput,omitempty"`
	OnTimeFraction float64 `json:"on_time_fraction,omitempty"`
}

// benchFile is the stable schema of a BENCH_<rev>.json file. Fields added
// after the first release carry omitempty so older readers (and diffs
// against older files) degrade gracefully; absent machine fields mean "one
// unknown core, serial engine".
type benchFile struct {
	Rev          string `json:"rev"`
	GoVersion    string `json:"go_version"`
	GOOS         string `json:"goos"`
	GOARCH       string `json:"goarch"`
	Quick        bool   `json:"quick"`
	PeakRSSBytes int64  `json:"peak_rss_bytes"`
	// GoMaxProcs and NumCPU record the parallelism available on the
	// benchmarking machine, to judge whether slots/sec figures from two
	// machines are comparable. Files written before the stage-parallel
	// engine was removed may also carry "workers" (and per-case
	// "workers_resolved" / "shard_ports"); the decoder ignores them.
	GoMaxProcs int `json:"gomaxprocs,omitempty"`
	NumCPU     int `json:"num_cpu,omitempty"`
	// Faults and FaultPolicy echo the -faults / -fault-policy flags when a
	// fault schedule was injected; absent for fault-free baselines, so
	// older files read (and diff) unchanged.
	Faults      string `json:"faults,omitempty"`
	FaultPolicy string `json:"fault_policy,omitempty"`
	// Count echoes the -count flag when repeats were requested: each
	// result is the fastest of Count runs. Absent for single-run files.
	Count int `json:"count,omitempty"`
	// Engine echoes the -engine request ("auto" omitted as the default);
	// the per-case Engine field records what each run actually used. Files
	// written before the -fastforward flag was folded into -engine
	// fastforward may carry "fastforward": true; the decoder ignores it.
	Engine string `json:"engine,omitempty"`
	// Admission echoes the -admission spec and DeadlineRel the -deadline
	// wrapper applied to every case; absent for policy-free baselines.
	Admission   string        `json:"admission,omitempty"`
	DeadlineRel int64         `json:"deadline_rel,omitempty"`
	Results     []benchResult `json:"results"`
}

// suite returns the fixed benchmark matrix. horizon scales every case; the
// quick suite divides it by 10 so CI can afford one iteration per case.
func suite(horizon int64) []benchCase {
	var cases []benchCase
	for _, traffic := range []string{"bursty", "uniform", "adversarial"} {
		for _, n := range []int{8, 32, 128} {
			for _, k := range []int{2, 8} {
				cases = append(cases, benchCase{
					Name:    fmt.Sprintf("%s/n%d/k%d", traffic, n, k),
					Traffic: traffic,
					N:       n,
					K:       k,
					RPrime:  2,
					Slots:   horizon,
					Seed:    1,
				})
			}
		}
	}
	// Large-N saturated cases. Horizons shrink with N so per-case wall time
	// stays in the same band as the rest of the suite.
	for _, n := range []int{512, 1024} {
		cases = append(cases, benchCase{
			Name:    fmt.Sprintf("bursty/n%d/k8", n),
			Traffic: "bursty",
			N:       n,
			K:       8,
			RPrime:  2,
			Slots:   horizon / int64(n/128),
			Seed:    1,
		})
	}
	// Low-load cases are the quiescence fast-forward's payoff scenario: a few
	// concentrated bursty flows at per-flow load 0.05 leave most slots
	// globally silent, so the event core elides them while the stepped engine
	// still pays O(N) per slot. Full horizon even at large N — long idle
	// stretches are exactly the workload being priced.
	// The N=16384 and N=65536 points price the event-driven core's O(events)
	// claim: per-slot cost must stay flat in N when the working sets (two
	// flows) do not grow with it. The stepped engine still pays O(N) per
	// slot here, which is exactly the gap the committed baselines document.
	for _, n := range []int{128, 1024, 16384, 65536} {
		cases = append(cases, benchCase{
			Name:    fmt.Sprintf("bursty-low/n%d/k8", n),
			Traffic: "bursty-low",
			N:       n,
			K:       8,
			RPrime:  2,
			Slots:   horizon,
			Seed:    1,
		})
	}
	// Overload cases offer more than the per-output capacity of 1 cell/slot
	// (speedup S = 1 at K=2, r'=2): a sustained hotspot at ~3.7x capacity on
	// output 0, and concentrated on/off flows whose overlapping bursts push
	// the instantaneous offered load past capacity. These are the scenarios
	// the admission layer sheds; run policy-free they document the backlog
	// pathology in the p99/p999 rqd columns, and with -admission the same
	// cases price graceful degradation (goodput / on-time columns).
	for _, traffic := range []string{"overload-hot", "overload-burst"} {
		cases = append(cases, benchCase{
			Name:    fmt.Sprintf("%s/n32/k2", traffic),
			Traffic: traffic,
			N:       32,
			K:       2,
			RPrime:  2,
			Slots:   horizon,
			Seed:    1,
		})
	}
	// The long-horizon case (1M slots at the default -slots 20000) is the
	// headline event-core scenario: a mostly-idle switch simulated for a
	// million slots in milliseconds because cost scales with events, not
	// slots. The quick suite keeps the same 50x multiplier over its shrunken
	// horizon (100k slots).
	cases = append(cases, benchCase{
		Name:    "bursty-low-1m/n1024/k8",
		Traffic: "bursty-low",
		N:       1024,
		K:       8,
		RPrime:  2,
		Slots:   50 * horizon,
		Seed:    1,
	})
	return cases
}

// buildSource constructs the case's traffic over the existing generators:
// uniform iid Bernoulli at load 0.6, bursty on/off at the same mean load,
// and the full-rate cyclic permutation as the adversarial heaviest
// admissible workload (rate exactly R per port, zero slack).
func buildSource(c benchCase) (ppsim.Source, error) {
	load := 0.6
	switch c.Traffic {
	case "uniform":
		return ppsim.NewBernoulli(c.N, load, ppsim.Time(c.Slots), c.Seed), nil
	case "bursty":
		meanOn := 8.0
		meanOff := meanOn * (1 - load) / load
		return ppsim.NewOnOff(c.N, meanOn, meanOff, ppsim.Time(c.Slots), c.Seed)
	case "bursty-low":
		// Two concentrated on/off flows at per-flow load 0.05 (mean on 8,
		// mean off 152): the switch is globally silent ~90% of slots, which
		// is the regime the quiescence fast-forward elides. Arrivals use
		// ports [0, 2), legal in any suite fabric (N >= 8).
		return ppsim.NewOnOff(2, 8, 152, ppsim.Time(c.Slots), c.Seed)
	case "overload-hot":
		// 95% of every input's cells aim at output 0: offered load there is
		// ~0.12*0.95*N = 3.7 cells/slot against a capacity of 1 — sustained
		// inadmissible load, the admission layer's headline scenario. The low
		// per-input load keeps the post-horizon drain within the 8x budget.
		return ppsim.NewHotspot(c.N, 0.12, 0.95, 0, ppsim.Time(c.Slots), c.Seed)
	case "overload-burst":
		// Four concentrated on/off flows at per-flow load 0.8 over four
		// outputs: the average per-output load (0.8) is admissible, but
		// overlapping on-periods repeatedly push the instantaneous offered
		// load to 2-4x capacity — the transient-overload regime a token
		// bucket smooths.
		return ppsim.NewOnOff(4, 32, 8, ppsim.Time(c.Slots), c.Seed)
	case "adversarial":
		perm := make([]ppsim.Port, c.N)
		for i := range perm {
			perm[i] = ppsim.Port((i + 1) % c.N)
		}
		return ppsim.NewPermutation(perm, ppsim.Time(c.Slots))
	default:
		return nil, fmt.Errorf("unknown traffic kind %q", c.Traffic)
	}
}

// run executes one case and measures throughput and allocation rate. A
// non-nil schedule injects the same faults into every case (planes beyond a
// small case's K are skipped by construction: the caller validates against
// the smallest K in the suite). A non-empty admission spec gates every
// arrival and records the goodput / on-time outcome; deadlineRel > 0 stamps
// each arrival with a departure deadline of its arrival slot + deadlineRel.
func run(c benchCase, sched *ppsim.FaultSchedule, policy ppsim.FaultPolicy, eng ppsim.Engine, adm *ppsim.AdmissionSpec, deadlineRel int64) (benchResult, error) {
	src, err := buildSource(c)
	if err != nil {
		return benchResult{}, err
	}
	if deadlineRel > 0 {
		src = ppsim.WithDeadline(src, ppsim.Time(deadlineRel))
	}
	cfg := ppsim.Config{
		N: c.N, K: c.K, RPrime: c.RPrime,
		DisableChecks: true,
		Algorithm:     ppsim.Algorithm{Name: "rr", Seed: c.Seed},
	}
	opts := ppsim.Options{Horizon: ppsim.Time(c.Slots) * 8, Faults: sched, FaultPolicy: policy, Engine: eng}
	if !adm.Empty() {
		opts.Admission = adm
	}
	var elided uint64
	opts.OnFastForward = func(from, to ppsim.Time) { elided += uint64(to - from) }

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := ppsim.Run(cfg, src, opts)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return benchResult{}, fmt.Errorf("%s: %w", c.Name, err)
	}

	slots := int64(res.Slots)
	out := benchResult{
		benchCase:    c,
		RunSlots:     slots,
		Cells:        res.Report.Cells,
		WallSeconds:  wall.Seconds(),
		MaxRQD:       int64(res.Report.MaxRQD),
		Drops:        res.Drops,
		SlotsElided:  elided,
		Engine:       res.Engine,
		EngineReason: res.EngineReason,
	}
	if wall > 0 {
		out.SlotsPerSec = float64(slots) / wall.Seconds()
		out.CellsPerSec = float64(res.Report.Cells) / wall.Seconds()
	}
	if slots > 0 {
		out.AllocsPerSlot = float64(after.Mallocs-before.Mallocs) / float64(slots)
		out.BytesPerSlot = float64(after.TotalAlloc-before.TotalAlloc) / float64(slots)
	}
	if q := res.Report.Percentiles; q.RQD.N > 0 {
		out.Percentiles = &q
	}
	if !adm.Empty() {
		out.Admitted = res.Report.Admitted
		out.Rejected = res.Report.Rejected
		out.Expired = res.Report.ExpiredAdmit + res.Report.ExpiredReseq
		out.Goodput = res.Goodput
		out.OnTimeFraction = res.OnTimeFraction
	}
	return out, nil
}

// peakRSS reads VmHWM from /proc/self/status (linux); 0 elsewhere.
func peakRSS() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		var kb int64
		if _, err := fmt.Sscan(fields[1], &kb); err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

// validateFlags rejects numeric flags outside their domain at parse time:
// -slots < 1 would write a report of zero-cell rows, -count < 1 would measure
// nothing, a negative or NaN -gate would silently switch the gate off (even
// under -gate-strict), and a negative -deadline has no meaning.
func validateFlags(slots int64, count int, gate float64, deadline int64) error {
	switch {
	case slots < 1:
		return fmt.Errorf("-slots must be >= 1, got %d", slots)
	case count < 1:
		return fmt.Errorf("-count must be >= 1, got %d", count)
	case !(gate >= 0) || math.IsInf(gate, 1):
		return fmt.Errorf("-gate must be a finite percent >= 0, got %v", gate)
	case deadline < 0:
		return fmt.Errorf("-deadline must be >= 0, got %d", deadline)
	}
	return nil
}

func main() {
	var (
		rev       = flag.String("rev", "dev", "revision label; output file is BENCH_<rev>.json")
		outDir    = flag.String("out", ".", "directory to write the JSON report into")
		filter    = flag.String("filter", "", "run only cases whose name contains one of these comma-separated substrings")
		quick     = flag.Bool("quick", false, "short horizons (CI smoke run)")
		slots     = flag.Int64("slots", 20000, "traffic horizon per case in slots")
		faultSpec = flag.String("faults", "", "fault schedule injected into every case, e.g. fail:0@1000,recover:0@3000")
		faultPol  = flag.String("fault-policy", "abort", "degradation policy: abort or dropcount")
		engineStr = flag.String("engine", "auto", "slot-execution core: auto, stepped, fastforward, event")
		count     = flag.Int("count", 1, "repeats per case; the fastest (minimum wall time) repeat is reported")
		admSpec   = flag.String("admission", "", "admission policy applied to every case, e.g. rate:1/2,burst:16,deadline")
		deadline  = flag.Int64("deadline", 0, "stamp each arrival with a departure deadline of its arrival slot + N (0 = off)")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile covering every measured run to this file")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile (after a final GC) to this file")
		baseline  = flag.String("compare", "", "print a markdown delta table against this BENCH_<rev>.json baseline")
		gate      = flag.Float64("gate", 10, "with -compare: flag cases whose slots/sec or cells/sec drop, or whose p99/p999 rqd grows, by more than this percent (0 disables)")
		strict    = flag.Bool("gate-strict", false, "with -compare: exit 1 when any case trips the -gate threshold (default: warn only)")
	)
	flag.Parse()
	if err := validateFlags(*slots, *count, *gate, *deadline); err != nil {
		fmt.Fprintln(os.Stderr, "ppsbench:", err)
		os.Exit(2)
	}

	eng, err := ppsim.ParseEngine(*engineStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppsbench:", err)
		os.Exit(2)
	}
	schedule, err := ppsim.ParseFaultSpec(*faultSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppsbench:", err)
		os.Exit(2)
	}
	policy, err := ppsim.ParseFaultPolicy(*faultPol)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppsbench:", err)
		os.Exit(2)
	}
	// Every suite case has K >= 2; validating against the smallest K keeps
	// one schedule legal for the whole matrix.
	if err := schedule.Validate(2); err != nil {
		fmt.Fprintln(os.Stderr, "ppsbench:", err)
		os.Exit(2)
	}
	if schedule.HasLoss() && policy != ppsim.FaultDropCount {
		fmt.Fprintln(os.Stderr, "ppsbench: -faults loss terms require -fault-policy dropcount")
		os.Exit(2)
	}
	var sched *ppsim.FaultSchedule
	if !schedule.Empty() {
		sched = schedule
	}
	adm, err := ppsim.ParseAdmissionSpec(*admSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppsbench:", err)
		os.Exit(2)
	}

	horizon := *slots
	if *quick {
		horizon /= 10
		if horizon < 100 {
			horizon = 100
		}
	}

	// Profiles bracket the measured runs only (flag parsing and JSON
	// encoding are excluded), so `go tool pprof -top` attributes samples to
	// the hot path the throughput figures describe. EXPERIMENTS.md has the
	// capture-and-read recipe.
	stopProfiles := func() {}
	for _, p := range []string{*cpuProf, *memProf} {
		if p == "" {
			continue
		}
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "ppsbench:", err)
			os.Exit(1)
		}
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ppsbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ppsbench:", err)
			os.Exit(1)
		}
		stopProfiles = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}

	report := benchFile{
		Rev:        *rev,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Quick:      *quick,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if *count > 1 {
		report.Count = *count
	}
	if eng != ppsim.EngineAuto {
		report.Engine = eng.String()
	}
	if sched != nil {
		report.Faults = sched.String()
		report.FaultPolicy = policy.String()
	}
	if !adm.Empty() {
		report.Admission = adm.String()
	}
	if *deadline > 0 {
		report.DeadlineRel = *deadline
	}
	for _, c := range suite(horizon) {
		if !matchFilter(*filter, c.Name) {
			continue
		}
		// Min-of-count: measurements are deterministic across repeats, so
		// only the wall-clock figures differ — the fastest repeat is the
		// least scheduler-noise estimate of the machine's throughput.
		res, err := run(c, sched, policy, eng, adm, *deadline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ppsbench:", err)
			os.Exit(1)
		}
		for r := 1; r < *count; r++ {
			again, err := run(c, sched, policy, eng, adm, *deadline)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ppsbench:", err)
				os.Exit(1)
			}
			if again.WallSeconds < res.WallSeconds {
				res = again
			}
		}
		fmt.Printf("%-22s slots=%-8d cells=%-9d %12.0f slots/s %12.0f cells/s %10.1f allocs/slot",
			res.Name, res.RunSlots, res.Cells, res.SlotsPerSec, res.CellsPerSec, res.AllocsPerSlot)
		if res.SlotsElided > 0 {
			fmt.Printf("  %d elided", res.SlotsElided)
		}
		if res.Rejected > 0 || res.Expired > 0 {
			fmt.Printf("  rejected=%d expired=%d goodput=%.3f onTime=%.3f",
				res.Rejected, res.Expired, res.Goodput, res.OnTimeFraction)
		}
		fmt.Println()
		report.Results = append(report.Results, res)
	}
	// Profiles close as soon as the measured loop ends: the CPU profile
	// excludes JSON encoding, and the heap profile snapshots live objects
	// after a final GC (the in-use view by allocation site, not transient
	// garbage).
	stopProfiles()
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ppsbench:", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ppsbench:", err)
			os.Exit(1)
		}
		f.Close()
	}
	if len(report.Results) == 0 {
		fmt.Fprintln(os.Stderr, "ppsbench: no cases matched filter", *filter)
		os.Exit(2)
	}
	report.PeakRSSBytes = peakRSS()

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "ppsbench:", err)
		os.Exit(1)
	}
	path := filepath.Join(*outDir, fmt.Sprintf("BENCH_%s.json", *rev))
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppsbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err == nil {
		err = f.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppsbench:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", path)

	if *baseline != "" {
		flagged, err := printDelta(os.Stdout, *baseline, report, *gate)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ppsbench:", err)
			os.Exit(1)
		}
		if flagged > 0 {
			fmt.Fprintf(os.Stderr, "ppsbench: warning: %d case(s) beyond the %.0f%% gate\n", flagged, *gate)
			if *strict {
				os.Exit(1)
			}
		}
	}
}

// printDelta renders a dependency-free benchstat substitute: a markdown
// table of per-case slots/sec, cells/sec and tail (p99 and p999 rqd) deltas
// against a committed baseline file. The CI bench-compare job pipes it into
// the job summary. Cases whose slots/sec or cells/sec drop, or whose p99 or
// p999 relative queuing delay grows, by more than gatePct percent are marked
// ⚠ and counted in the return value, and so is every case whose engine
// differs from the baseline case's — its numbers are not comparable,
// whatever they say (gatePct <= 0 disables all marking); the caller
// decides whether a non-zero count is fatal — the default is a warning,
// -gate-strict exits non-zero. A baseline without cells/sec data
// (pre-schema files record 0) renders an em dash and never gates, so old
// baselines stay comparable; a zero-valued baseline tail quantile likewise
// renders with the "— →" convention rather than a division-by-zero percent.
// When either side carries admission QoS figures, goodput and on-time
// fraction columns are appended — informational only, they never gate.
// Only an unreadable baseline is an error.
func printDelta(w io.Writer, baselinePath string, cur benchFile, gatePct float64) (int, error) {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return 0, err
	}
	var base benchFile
	if err := json.Unmarshal(data, &base); err != nil {
		return 0, fmt.Errorf("parsing %s: %w", baselinePath, err)
	}
	byName := make(map[string]benchResult, len(base.Results))
	for _, r := range base.Results {
		byName[r.Name] = r
	}
	fmt.Fprintf(w, "\n### ppsbench: %s vs baseline %s\n\n", cur.Rev, base.Rev)
	if base.Quick != cur.Quick || base.Engine != cur.Engine {
		fmt.Fprintf(w, "> note: configurations differ (quick %v/%v, engine %s/%s) — deltas are indicative only\n\n",
			base.Quick, cur.Quick,
			engineLabel(base.Engine), engineLabel(cur.Engine))
	}
	hasQoS := false
	for _, r := range base.Results {
		if r.Goodput > 0 || r.OnTimeFraction > 0 {
			hasQoS = true
		}
	}
	for _, r := range cur.Results {
		if r.Goodput > 0 || r.OnTimeFraction > 0 {
			hasQoS = true
		}
	}
	head := "| case | baseline slots/s | new slots/s | delta | cells/s (base → new) | allocs/slot (base → new) | p99 rqd (base → new) | p999 rqd (base → new) |"
	rule := "|---|---:|---:|---:|---:|---:|---:|---:|"
	if hasQoS {
		head += " goodput (base → new) | on-time (base → new) |"
		rule += "---:|---:|"
	}
	flagged := 0
	fmt.Fprintln(w, head)
	fmt.Fprintln(w, rule)
	for _, r := range cur.Results {
		b, ok := byName[r.Name]
		qos := ""
		if hasQoS {
			qos = fmt.Sprintf(" %s | %s |", qosCell(b.Goodput, r.Goodput), qosCell(b.OnTimeFraction, r.OnTimeFraction))
		}
		if !ok || b.SlotsPerSec == 0 {
			fmt.Fprintf(w, "| %s | — | %.0f | new | — → %.0f | — → %.1f | — → %s | — → %s |%s\n",
				r.Name, r.SlotsPerSec, r.CellsPerSec, r.AllocsPerSlot, tailCell(r.Percentiles, 99), tailCell(r.Percentiles, 99.9), qos)
			continue
		}
		delta := (r.SlotsPerSec/b.SlotsPerSec - 1) * 100
		trip := gatePct > 0 && delta < -gatePct
		name := r.Name
		if be, ce := caseEngine(b.Engine), caseEngine(r.Engine); be != ce {
			name += fmt.Sprintf(" (engine %s → %s: not comparable)", be, ce)
			trip = trip || gatePct > 0
		}
		// Cells/sec gates alongside slots/sec: a batching change can keep the
		// slot rate flat while halving the cell rate on loaded cases. A zero
		// baseline (pre-schema file, or a case that moved no cells) renders
		// an em dash and cannot gate.
		var cells string
		if b.CellsPerSec > 0 {
			cdelta := (r.CellsPerSec/b.CellsPerSec - 1) * 100
			cells = fmt.Sprintf("%.0f → %.0f (%+.1f%%)", b.CellsPerSec, r.CellsPerSec, cdelta)
			if gatePct > 0 && cdelta < -gatePct {
				trip = true
			}
		} else {
			cells = fmt.Sprintf("— → %.0f", r.CellsPerSec)
		}
		// Gate both rendered tail columns: a regression that shows only at
		// p999 (the rarest 0.1% of cells) must flag exactly like one at p99.
		if gatePct > 0 && b.Percentiles != nil && r.Percentiles != nil &&
			b.Percentiles.RQD.N > 0 && r.Percentiles.RQD.N > 0 &&
			(tailRegressed(b.Percentiles.RQD.P99, r.Percentiles.RQD.P99, gatePct) ||
				tailRegressed(b.Percentiles.RQD.P999, r.Percentiles.RQD.P999, gatePct)) {
			trip = true
		}
		mark := ""
		if trip {
			mark = " ⚠"
			flagged++
		}
		fmt.Fprintf(w, "| %s | %.0f | %.0f | %+.1f%%%s | %s | %.1f → %.1f | %s | %s |%s\n",
			name, b.SlotsPerSec, r.SlotsPerSec, delta, mark, cells, b.AllocsPerSlot, r.AllocsPerSlot,
			tailDeltaCell(b.Percentiles, r.Percentiles, 99),
			tailDeltaCell(b.Percentiles, r.Percentiles, 99.9), qos)
	}
	return flagged, nil
}

// matchFilter reports whether a case name passes the -filter flag: an empty
// filter passes everything, otherwise any of the comma-separated substrings
// may match (so CI can select disjoint cases, e.g.
// -filter bursty/n512,bursty/n1024).
func matchFilter(filter, name string) bool {
	if filter == "" {
		return true
	}
	for _, f := range strings.Split(filter, ",") {
		if f != "" && strings.Contains(name, f) {
			return true
		}
	}
	return false
}

// engineLabel renders a benchFile's Engine field for the config-mismatch
// note; the empty value (older files, auto runs) reads as "auto".
func engineLabel(s string) string {
	if s == "" {
		return "auto"
	}
	return s
}

// caseEngine renders a benchResult's Engine field for the per-case engine
// check; the empty value (files written before the field existed) reads as
// "stepped", the only core those runs had.
func caseEngine(s string) string {
	if s == "" {
		return "stepped"
	}
	return s
}

// tailCell formats one rqd quantile for the delta table, or an em dash when
// the side carries no percentile block (pre-schema baselines, empty runs).
func tailCell(q *ppsim.DelayQuantiles, p float64) string {
	if q == nil || q.RQD.N == 0 {
		return "—"
	}
	if p >= 99.9 {
		return fmt.Sprintf("%d", q.RQD.P999)
	}
	return fmt.Sprintf("%d", q.RQD.P99)
}

// tailValue extracts one rqd quantile; callers must have checked the block
// is non-nil with samples (tailCell != "—").
func tailValue(q *ppsim.DelayQuantiles, p float64) int64 {
	if p >= 99.9 {
		return q.RQD.P999
	}
	return q.RQD.P99
}

// tailDeltaCell renders one rqd tail column (base → new) with a percent
// delta. A side without a percentile block keeps tailCell's em dash; a
// zero-valued baseline quantile follows the cells/s column's "— →"
// convention, since a percent of a zero baseline is a division-by-zero
// artifact rather than a delta; a negative baseline (PPS beating the
// shadow) renders both sides without a percent.
func tailDeltaCell(bq, cq *ppsim.DelayQuantiles, p float64) string {
	bs, cs := tailCell(bq, p), tailCell(cq, p)
	if bs == "—" || cs == "—" {
		return bs + " → " + cs
	}
	b, c := tailValue(bq, p), tailValue(cq, p)
	switch {
	case b == 0:
		return fmt.Sprintf("— → %d", c)
	case b < 0:
		return fmt.Sprintf("%d → %d", b, c)
	default:
		return fmt.Sprintf("%d → %d (%+.1f%%)", b, c, (float64(c)/float64(b)-1)*100)
	}
}

// qosCell renders one admission QoS column side pair (goodput or on-time
// fraction). A zero side means the figure was not recorded (policy-free
// run) and shows an em dash; with both sides present a percent delta rides
// along. These columns are informational — they never gate.
func qosCell(b, c float64) string {
	switch {
	case b <= 0 && c <= 0:
		return "—"
	case b <= 0:
		return fmt.Sprintf("— → %.3f", c)
	case c <= 0:
		return fmt.Sprintf("%.3f → —", b)
	default:
		return fmt.Sprintf("%.3f → %.3f (%+.1f%%)", b, c, (c/b-1)*100)
	}
}

// tailRegressed reports whether a new rqd tail quantile (p99 or p999)
// regressed past the gate: more than pct percent above a positive baseline,
// or more than one slot above a zero/negative baseline (a percent of a
// non-positive tail is meaningless, and one slot of growth there is
// quantization noise).
func tailRegressed(base, cur int64, pct float64) bool {
	if base > 0 {
		return float64(cur) > float64(base)*(1+pct/100)
	}
	return cur > base+1
}
