// Package stats provides the small set of descriptive statistics the
// experiment harness reports: extrema, mean, percentiles and fixed-width
// histograms over integer-valued samples (delays measured in time-slots).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary accumulates integer samples and reports descriptive statistics.
// The zero value is an empty summary ready for use.
type Summary struct {
	samples []int64
	sum     int64
	sorted  bool
}

// Add records one sample.
func (s *Summary) Add(v int64) {
	s.samples = append(s.samples, v)
	s.sum += v
	s.sorted = false
}

// N reports the number of recorded samples.
func (s *Summary) N() int { return len(s.samples) }

// Min returns the smallest sample, or 0 when empty.
func (s *Summary) Min() int64 {
	if len(s.samples) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.samples[0]
}

// Max returns the largest sample, or 0 when empty.
func (s *Summary) Max() int64 {
	if len(s.samples) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.samples[len(s.samples)-1]
}

// Mean returns the arithmetic mean, or 0 when empty.
func (s *Summary) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return float64(s.sum) / float64(len(s.samples))
}

// Stddev returns the population standard deviation, or 0 when empty.
func (s *Summary) Stddev() float64 {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	m := s.Mean()
	var acc float64
	for _, v := range s.samples {
		d := float64(v) - m
		acc += d * d
	}
	return math.Sqrt(acc / float64(n))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using the
// nearest-rank method, or 0 when empty.
func (s *Summary) Percentile(p float64) int64 {
	if len(s.samples) == 0 {
		return 0
	}
	s.ensureSorted()
	return Percentile(s.samples, p)
}

// Percentile returns the p-th percentile (0 <= p <= 100) of the ascending
// sorted samples by the nearest-rank method, or 0 when empty. This and
// NearestRank are the one percentile implementation in the repo; Summary,
// every ad-hoc sample-slice caller and the recorder's counting histogram
// delegate here so the convention cannot drift.
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

func (s *Summary) ensureSorted() {
	if s.sorted {
		return
	}
	sort.Slice(s.samples, func(i, j int) bool { return s.samples[i] < s.samples[j] })
	s.sorted = true
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

// Histogram counts samples into fixed-width buckets starting at zero.
// Samples below zero go into an underflow bucket; samples at or above
// width*len(counts) go into an overflow bucket.
type Histogram struct {
	width     int64
	counts    []int64
	underflow int64
	overflow  int64
	total     int64
}

// NewHistogram returns a histogram with nbuckets buckets of the given width.
// It panics if width <= 0 or nbuckets <= 0: a degenerate histogram is a
// configuration error.
func NewHistogram(width int64, nbuckets int) *Histogram {
	if width <= 0 || nbuckets <= 0 {
		panic("stats: histogram width and bucket count must be positive")
	}
	return &Histogram{width: width, counts: make([]int64, nbuckets)}
}

// Add records one sample.
func (h *Histogram) Add(v int64) {
	h.total++
	if v < 0 {
		h.underflow++
		return
	}
	b := v / h.width
	if b >= int64(len(h.counts)) {
		h.overflow++
		return
	}
	h.counts[b]++
}

// Total reports the number of recorded samples.
func (h *Histogram) Total() int64 { return h.total }

// Bucket returns the count in bucket i, covering [i*width, (i+1)*width).
func (h *Histogram) Bucket(i int) int64 { return h.counts[i] }

// Overflow returns the count of samples beyond the last bucket.
func (h *Histogram) Overflow() int64 { return h.overflow }

// Underflow returns the count of negative samples.
func (h *Histogram) Underflow() int64 { return h.underflow }

// Render returns a textual bar chart, one line per non-empty bucket, scaled
// so the largest bar has barWidth characters.
func (h *Histogram) Render(barWidth int) string {
	if barWidth <= 0 {
		barWidth = 40
	}
	var maxCount int64
	for _, c := range h.counts {
		if c > maxCount {
			maxCount = c
		}
	}
	var b strings.Builder
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		bar := int(float64(c) / float64(maxCount) * float64(barWidth))
		if bar == 0 {
			bar = 1
		}
		fmt.Fprintf(&b, "[%6d,%6d) %8d %s\n",
			int64(i)*h.width, int64(i+1)*h.width, c, strings.Repeat("#", bar))
	}
	if h.overflow > 0 {
		fmt.Fprintf(&b, "[%6d,   inf) %8d\n", int64(len(h.counts))*h.width, h.overflow)
	}
	return b.String()
}

// MaxInt64 returns the larger of a and b.
func MaxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// MinInt64 returns the smaller of a and b.
func MinInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
