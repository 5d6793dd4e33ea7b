package main

import (
	"os"
	"strings"
)

// rdtsc reads the CPU time-stamp counter after every earlier instruction
// has completed.
func rdtsc() int64

// tscOK is set when the counter ticks at a constant rate in every power
// state, so ticks convert to nanoseconds by one ratio per run.
var tscOK = func() bool {
	f := cpuFlags()
	return f["constant_tsc"] && f["nonstop_tsc"]
}()

// ticks reads the span clock: the time-stamp counter where it is constant,
// the monotonic clock otherwise. A fenced counter read costs well under a
// monotonic-clock read, which keeps the timer cost small beside the
// sub-microsecond calls the traced run times.
func ticks() int64 {
	if tscOK {
		return rdtsc()
	}
	return now()
}

func cpuFlags() map[string]bool {
	flags := map[string]bool{}
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return flags
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "flags" {
			for _, f := range strings.Fields(v) {
				flags[f] = true
			}
			break
		}
	}
	return flags
}
