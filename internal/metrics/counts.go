package metrics

import "ppsim/internal/stats"

// valueCounts is an exact histogram of integer samples: one counter per value
// between the smallest and the largest sample seen. Its memory is O(value
// range), not O(samples), and its nearest-rank percentiles and mean equal
// stats.Summary's over the same samples.
type valueCounts struct {
	lo     int64    // value counted by counts[0]
	counts []uint64 // counts[i] = samples equal to lo+i
	n      uint64
	sum    int64
}

func (h *valueCounts) add(v int64) {
	switch {
	case len(h.counts) == 0:
		h.lo = v
		h.counts = append(h.counts, 0)
	case v < h.lo:
		// Extend downward by at least the current width, so a run of ever
		// smaller values costs amortized O(1) per sample like the upward
		// append below.
		shift := h.lo - v
		if w := int64(len(h.counts)); shift < w {
			shift = w
		}
		counts := make([]uint64, int64(len(h.counts))+shift)
		copy(counts[shift:], h.counts)
		h.counts, h.lo = counts, h.lo-shift
	}
	for int64(len(h.counts)) <= v-h.lo {
		h.counts = append(h.counts, 0)
	}
	h.counts[v-h.lo]++
	h.n++
	h.sum += v
}

// mean returns the arithmetic mean, or 0 when empty.
func (h *valueCounts) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// percentile returns the nearest-rank p-th percentile (stats.NearestRank), or
// 0 when empty.
func (h *valueCounts) percentile(p float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(stats.NearestRank(int(h.n), p))
	var seen uint64
	for i, c := range h.counts {
		if seen += c; seen >= rank {
			return h.lo + int64(i)
		}
	}
	panic("metrics: value counts disagree with their total")
}
