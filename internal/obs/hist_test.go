package obs

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// exactPercentile is the nearest-rank reference (the stats.Summary
// convention), reimplemented here so the test stays independent of the
// stats.NearestRank rule LogHist.Quantile itself calls.
func exactPercentile(sorted []int64, p float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := int(p / 100 * float64(n))
	if float64(rank) < p/100*float64(n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func TestHistBucketContainsValue(t *testing.T) {
	vals := []int64{0, 1, 2, 63, 64, 65, 127, 128, 129, 1000, 1 << 20, 1<<20 + 3,
		1<<30 - 1, 1 << 30, histMaxValue, histMaxValue + 100}
	for v := int64(0); v < 4096; v++ {
		vals = append(vals, v)
	}
	for _, v := range vals {
		idx := histBucket(v)
		lo := histLower(idx)
		w := histWidthAt(idx)
		cv := v
		if cv > histMaxValue {
			cv = histMaxValue
		}
		if cv < lo || cv >= lo+w {
			t.Fatalf("value %d: bucket %d covers [%d,%d), does not contain it", v, idx, lo, lo+w)
		}
		if v < histSubCount && (lo != v || w != 1) {
			t.Fatalf("value %d below subCount should be exact, got lower=%d width=%d", v, lo, w)
		}
	}
	// Bucket indices must be monotone and within range.
	last := -1
	for v := int64(0); v < 1<<18; v++ {
		idx := histBucket(v)
		if idx < last || idx >= histBuckets {
			t.Fatalf("value %d: bucket %d (last %d, max %d)", v, idx, last, histBuckets)
		}
		last = idx
	}
}

func TestLogHistQuantileMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewLogHist()
	var samples []int64
	for i := 0; i < 20000; i++ {
		var v int64
		switch i % 4 {
		case 0:
			v = rng.Int63n(50) // exact region
		case 1:
			v = rng.Int63n(1 << 16)
		case 2:
			v = -rng.Int63n(1 << 10) // negative RQD region
		default:
			v = rng.Int63n(1 << 30)
		}
		samples = append(samples, v)
		h.Record(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, p := range []float64{0, 1, 10, 50, 90, 99, 99.9, 100} {
		exact := exactPercentile(samples, p)
		got := h.Quantile(p)
		w := BucketWidth(exact)
		if got > exact || exact-got >= w {
			if !(got <= exact+w && got >= exact-w) {
				t.Fatalf("p%v: hist %d vs exact %d (bucket width %d)", p, got, exact, w)
			}
		}
		// The histogram answer must sit in the bucket holding the exact
		// answer (or be clamped to the exact min/max).
		if diff := got - exact; diff >= w || diff <= -w {
			t.Fatalf("p%v: hist %d off by %d, more than bucket width %d", p, got, diff, w)
		}
	}
	if h.Min() != samples[0] || h.Max() != samples[len(samples)-1] {
		t.Fatalf("min/max not exact: got %d/%d want %d/%d", h.Min(), h.Max(), samples[0], samples[len(samples)-1])
	}
}

func TestLogHistExactBelow64(t *testing.T) {
	h := NewLogHist()
	var samples []int64
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		v := rng.Int63n(64) - 32 // all magnitudes < 64: unit buckets
		samples = append(samples, v)
		h.Record(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, p := range []float64{25, 50, 75, 99, 99.9} {
		if got, want := h.Quantile(p), exactPercentile(samples, p); got != want {
			t.Fatalf("p%v: got %d want exact %d", p, got, want)
		}
	}
}

func TestLogHistMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	serial := NewLogHist()
	shards := []*LogHist{NewLogHist(), NewLogHist(), NewLogHist()}
	for i := 0; i < 9000; i++ {
		v := rng.Int63n(1<<20) - 1<<10
		serial.Record(v)
		shards[i%3].Record(v)
	}
	merged := NewLogHist()
	for _, s := range shards {
		merged.Merge(s)
	}
	if !reflect.DeepEqual(serial, merged) {
		t.Fatalf("merged shards differ from serial histogram: %+v vs %+v", serial.Summary(), merged.Summary())
	}
}

func TestLogHistMergeDeltaNoDoubleCount(t *testing.T) {
	run := NewLogHist()
	prev := NewLogHist()
	totals := NewLogHist()
	want := NewLogHist()
	rng := rand.New(rand.NewSource(5))
	for flush := 0; flush < 4; flush++ {
		for i := 0; i < 1000; i++ {
			v := rng.Int63n(500) - 50
			run.Record(v)
			want.Record(v)
		}
		totals.MergeDelta(run, prev)
		prev.CopyFrom(run)
	}
	if !reflect.DeepEqual(totals, want) {
		t.Fatalf("delta-merged totals differ from direct recording: %+v vs %+v", totals.Summary(), want.Summary())
	}
	// A flush with no growth must be a no-op.
	before := *totals
	totals.MergeDelta(run, prev)
	if !reflect.DeepEqual(&before, totals) {
		t.Fatal("empty delta changed totals")
	}
}

func TestLogHistRecordN(t *testing.T) {
	a, b := NewLogHist(), NewLogHist()
	for _, v := range []int64{-7, 0, 3, 100, 1 << 22} {
		a.RecordN(v, 13)
		for i := 0; i < 13; i++ {
			b.Record(v)
		}
	}
	a.RecordN(42, 0)
	a.RecordN(42, -5)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("RecordN differs from repeated Record: %+v vs %+v", a.Summary(), b.Summary())
	}
}

func TestLogHistEmptyAndReset(t *testing.T) {
	h := NewLogHist()
	if q := h.Summary(); q != (Quantiles{}) {
		t.Fatalf("empty histogram summary not zero: %+v", q)
	}
	h.Record(9)
	h.Reset()
	if h.N() != 0 || h.Quantile(50) != 0 {
		t.Fatal("reset did not empty the histogram")
	}
}

func TestDelaySetQuantiles(t *testing.T) {
	d := NewDelaySet()
	d.RQD.Record(5)
	d.Gap.Record(2)
	q := d.Quantiles()
	if q.RQD.N != 1 || q.RQD.P50 != 5 || q.Gap.P50 != 2 || q.Demux.N != 0 {
		t.Fatalf("unexpected quantiles: %+v", q)
	}
}
