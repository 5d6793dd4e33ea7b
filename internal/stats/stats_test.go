package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Min() != 0 || s.Max() != 0 || s.Mean() != 0 || s.Stddev() != 0 {
		t.Error("empty summary should report zeros")
	}
	if s.Percentile(50) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []int64{5, 1, 9, 3, 7} {
		s.Add(v)
	}
	if s.N() != 5 {
		t.Errorf("N = %d", s.N())
	}
	if s.Min() != 1 || s.Max() != 9 {
		t.Errorf("Min/Max = %d/%d", s.Min(), s.Max())
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %f", s.Mean())
	}
	if got := s.Percentile(50); got != 5 {
		t.Errorf("p50 = %d", got)
	}
	if got := s.Percentile(100); got != 9 {
		t.Errorf("p100 = %d", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("p0 = %d", got)
	}
}

func TestSummaryAddAfterSort(t *testing.T) {
	var s Summary
	s.Add(10)
	_ = s.Max() // forces sort
	s.Add(1)
	if s.Min() != 1 {
		t.Error("Add after Max must invalidate sorted cache")
	}
}

func TestStddev(t *testing.T) {
	var s Summary
	for _, v := range []int64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if got := s.Stddev(); math.Abs(got-2.0) > 1e-12 {
		t.Errorf("Stddev = %f, want 2", got)
	}
}

func TestSummaryString(t *testing.T) {
	var s Summary
	s.Add(3)
	if got := s.String(); !strings.Contains(got, "n=1") || !strings.Contains(got, "max=3") {
		t.Errorf("String = %q", got)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotone(t *testing.T) {
	prop := func(vals []int16) bool {
		if len(vals) == 0 {
			return true
		}
		var s Summary
		for _, v := range vals {
			s.Add(int64(v))
		}
		prev := s.Percentile(0)
		for p := 5.0; p <= 100; p += 5 {
			cur := s.Percentile(p)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return s.Percentile(0) == s.Min() && s.Percentile(100) == s.Max()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: min/max/mean, every percentile and the standard deviation agree
// with a direct computation over a sorted copy.
func TestSummaryMatchesDirect(t *testing.T) {
	ps := []float64{0, 1, 25, 50, 75, 99, 99.9, 100}
	prop := func(vals []int16) bool {
		if len(vals) == 0 {
			return true
		}
		var s Summary
		sorted := make([]int64, len(vals))
		var sum int64
		for i, v := range vals {
			s.Add(int64(v))
			sorted[i] = int64(v)
			sum += int64(v)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		wantMean := float64(sum) / float64(len(vals))
		var acc float64
		for _, v := range sorted {
			d := float64(v) - wantMean
			acc += d * d
		}
		wantStddev := math.Sqrt(acc / float64(len(vals)))
		for _, p := range ps {
			if s.Percentile(p) != Percentile(sorted, p) {
				return false
			}
		}
		return s.Min() == sorted[0] &&
			s.Max() == sorted[len(sorted)-1] &&
			math.Abs(s.Mean()-wantMean) < 1e-9 &&
			math.Abs(s.Stddev()-wantStddev) <= 1e-9*(1+wantStddev)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestHistogram checks the per-value count table behind Summary: exact
// nearest-rank percentiles, growth below the first sample, and memory bounded
// by the value range rather than the sample count.
func TestHistogram(t *testing.T) {
	var s Summary
	// Ten descending passes over 0..99: 1000 samples, rank r holds value
	// (r-1)/10.
	for rep := 0; rep < 10; rep++ {
		for v := int64(99); v >= 0; v-- {
			s.Add(v)
		}
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0, 0}, {50, 49}, {99, 98}, {99.9, 99}, {100, 99}} {
		if got := s.Percentile(c.p); got != c.want {
			t.Errorf("p%v = %d, want %d", c.p, got, c.want)
		}
	}
	if n := len(s.counts); n > 2*100 {
		t.Errorf("count table holds %d values for a range of 100", n)
	}

	// Downward growth: each new value lies below the previous minimum. The
	// table extends downward by at least its width at a time, so it may
	// hold up to twice the value range, never more.
	var d Summary
	const lo, hi = -5000, 64
	for v := int64(hi); v >= lo; v -= 7 {
		d.Add(v)
		d.Add(v)
		if rng := d.Max() - d.Min() + 1; int64(len(d.counts)) > 2*rng {
			t.Fatalf("after %d: count table holds %d values for a range of %d", v, len(d.counts), rng)
		}
	}
	if d.Max() != hi || d.Percentile(0) != d.Min() || d.Percentile(100) != hi {
		t.Errorf("min/max %d/%d, p0 %d, p100 %d", d.Min(), d.Max(), d.Percentile(0), d.Percentile(100))
	}
	if d.N() != 2*((hi-lo)/7+1) {
		t.Errorf("N = %d", d.N())
	}
}
