package main

// metricDef names one printed metric. The same names, units and directions
// are declared in BENCHMARK.json; the package test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd metrics are measured with tracing off (--trace 0).
var endToEnd = []metricDef{
	{"cells_per_s", "cells/s", "higher"},
	{"slots_per_s", "slots/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"alloc_bytes_per_cell", "B/cell", "lower"},
}

// perLayer metrics come from the traced run (--trace 1). Per-cell figures
// divide by delivered cells; shares divide by the traced wall time.
var perLayer = []metricDef{
	{"traffic.calls", "count", "lower"},
	{"traffic.arrivals", "count", "higher"},
	{"traffic.self_ns_per_arrival", "ns/arrival", "lower"},
	{"traffic.share", "fraction", "lower"},
	{"admission.decisions", "count", "lower"},
	{"admission.admit_ratio", "fraction", "higher"},
	{"admission.self_ns_per_decision", "ns/decision", "lower"},
	{"admission.share", "fraction", "lower"},
	{"cell.stamps", "count", "higher"},
	{"cell.self_ns_per_stamp", "ns/stamp", "lower"},
	{"cell.share", "fraction", "lower"},
	{"demux.slot_calls", "count", "lower"},
	{"demux.sends", "count", "higher"},
	{"demux.sends_per_call", "sends/call", "higher"},
	{"demux.self_ns_per_send", "ns/send", "lower"},
	{"demux.share", "fraction", "lower"},
	{"demux.log_events", "count", "lower"},
	{"mux.pull_calls", "count", "lower"},
	{"mux.cells_pulled", "count", "higher"},
	{"mux.pull_yield", "fraction", "higher"},
	{"mux.self_ns_per_cell", "ns/cell", "lower"},
	{"mux.share", "fraction", "lower"},
	{"fabric.step_calls", "count", "lower"},
	{"fabric.departures", "count", "higher"},
	{"fabric.self_ns_per_cell", "ns/cell", "lower"},
	{"fabric.share", "fraction", "lower"},
	{"shadow.step_calls", "count", "lower"},
	{"shadow.self_ns_per_cell", "ns/cell", "lower"},
	{"shadow.share", "fraction", "lower"},
	{"metrics.calls", "count", "lower"},
	{"metrics.self_ns_per_cell", "ns/cell", "lower"},
	{"metrics.share", "fraction", "lower"},
	{"harness.executed_slots", "count", "lower"},
	{"harness.elided_ratio", "fraction", "higher"},
	{"harness.slot_ns_p50", "ns", "lower"},
	{"harness.slot_ns_p99", "ns", "lower"},
	{"harness.slot_ns_samples", "count", "higher"},
	{"harness.self_share", "fraction", "lower"},
	{"harness.retained_bytes_per_cell", "B/cell", "lower"},
	{"runtime.gc_cpu_frac", "fraction", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"trace.overhead_frac", "fraction", "lower"},
}
