// Package stats provides the small set of descriptive statistics the
// experiment harness reports: extrema, mean, standard deviation and
// nearest-rank percentiles over integer-valued samples (delays measured in
// time-slots), kept exactly in a per-value count table.
package stats

import (
	"fmt"
	"math"
)

// Summary accumulates integer samples and reports exact descriptive
// statistics. It keeps one counter per value between the smallest and the
// largest sample seen, so its memory is O(value range), not O(samples): it
// suits delays measured in slots, not values spread over a wide range.
// The zero value is an empty summary ready for use.
type Summary struct {
	lo       int64    // value counted by counts[0]
	counts   []uint64 // counts[i] = samples equal to lo+i
	n        int
	sum      int64
	min, max int64
}

// Add records one sample.
func (s *Summary) Add(v int64) {
	if s.n == 0 {
		s.lo, s.min, s.max = v, v, v
	} else {
		s.min, s.max = min(s.min, v), max(s.max, v)
	}
	if v < s.lo {
		// Extend downward by at least the current width, so a run of ever
		// smaller values costs amortized O(1) per sample like the upward
		// append below.
		shift := max(s.lo-v, int64(len(s.counts)))
		counts := make([]uint64, int64(len(s.counts))+shift)
		copy(counts[shift:], s.counts)
		s.counts, s.lo = counts, s.lo-shift
	}
	for int64(len(s.counts)) <= v-s.lo {
		s.counts = append(s.counts, 0)
	}
	s.counts[v-s.lo]++
	s.n++
	s.sum += v
}

// N reports the number of recorded samples.
func (s *Summary) N() int { return s.n }

// Min returns the smallest sample, or 0 when empty.
func (s *Summary) Min() int64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest sample, or 0 when empty.
func (s *Summary) Max() int64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Mean returns the arithmetic mean, or 0 when empty.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.n)
}

// Stddev returns the population standard deviation, or 0 when empty.
func (s *Summary) Stddev() float64 {
	if s.n == 0 {
		return 0
	}
	m := s.Mean()
	var acc float64
	for i, c := range s.counts {
		d := float64(s.lo+int64(i)) - m
		acc += float64(c) * d * d
	}
	return math.Sqrt(acc / float64(s.n))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using the
// nearest-rank method, or 0 when empty.
func (s *Summary) Percentile(p float64) int64 {
	if s.n == 0 {
		return 0
	}
	rank := uint64(NearestRank(s.n, p))
	var seen uint64
	for i, c := range s.counts {
		if seen += c; seen >= rank {
			return s.lo + int64(i)
		}
	}
	panic("stats: summary counts disagree with their total")
}

// Percentile returns the p-th percentile (0 <= p <= 100) of the ascending
// sorted samples by the nearest-rank method, or 0 when empty. NearestRank is
// the one rank rule in the repo: Summary, every ad-hoc sample-slice caller
// and the streaming obs.LogHist all select by it, so the convention cannot
// drift.
func Percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[NearestRank(len(sorted), p)-1]
}

// NearestRank returns the 1-based rank of the p-th percentile among n > 0
// ascending samples: 1 for p <= 0, n for p >= 100, ceil(p/100*n) otherwise.
func NearestRank(n int, p float64) int {
	if p <= 0 {
		return 1
	}
	if p >= 100 {
		return n
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return rank
}

// FormatLine renders the shared one-line distribution summary
// "<countLabel>=N min=... mean=... p50=... p99=... max=...". Summary.String
// and ppsim.Distribution.String both delegate here so the format stays
// identical everywhere it appears.
func FormatLine(countLabel string, n int, min int64, mean float64, p50, p99, max int64) string {
	return fmt.Sprintf("%s=%d min=%d mean=%.2f p50=%d p99=%d max=%d",
		countLabel, n, min, mean, p50, p99, max)
}

// String renders "n=... min=... mean=... p99=... max=...".
func (s *Summary) String() string {
	return FormatLine("n", s.N(), s.Min(), s.Mean(), s.Percentile(50), s.Percentile(99), s.Max())
}
