package metrics

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"ppsim/internal/cell"
	"ppsim/internal/stats"
)

// TestJoinRingBoundedBySkew streams 1M cells through the recorder, the shadow
// departing cell s at slot s and the PPS at slot s+d with a random skew d in
// [0, 64). The join ring must stay at a small fixed size — it holds the cells
// in flight, not the run — while every PPS departure's RQD stays answerable
// after its slot and the report sees every cell.
func TestJoinRingBoundedBySkew(t *testing.T) {
	const cells, skew, ringBound = 1 << 20, 64, 256
	rnd := rand.New(rand.NewSource(1))
	d := make([]uint8, cells)
	for i := range d {
		d[i] = uint8(rnd.Intn(skew))
	}
	r := NewRecorderSized(4)
	flow := func(s uint64) cell.Flow { return cell.Flow{In: cell.Port(s % 4), Out: cell.Port(s / 4 % 4)} }
	var departed []uint64
	var sum int64
	for slot := cell.Time(0); slot < cells+skew; slot++ {
		departed = departed[:0]
		for s := int64(slot) - skew + 1; s <= int64(slot); s++ {
			if s >= 0 && s < cells && s+int64(d[s]) == int64(slot) {
				seq := uint64(s)
				r.PPSDepart(dep(seq, seq, flow(seq), cell.Time(s), slot))
				departed = append(departed, seq)
			}
		}
		if slot < cells {
			seq := uint64(slot)
			r.ShadowDepart(dep(seq, seq, flow(seq), slot, slot))
		}
		for _, seq := range departed {
			q, ok := r.RQD(seq)
			if !ok || q != cell.Time(d[seq]) {
				t.Fatalf("slot %d: RQD(%d) = %d, %v; want %d, true", slot, seq, q, ok, d[seq])
			}
			sum += int64(d[seq])
		}
		if n := len(r.join.buf); n > ringBound {
			t.Fatalf("slot %d: join ring holds %d entries, want <= %d", slot, n, ringBound)
		}
	}
	rep := r.Report()
	if rep.Cells != cells || rep.MaxRQD != skew-1 {
		t.Errorf("report cells=%d maxRQD=%d, want %d and %d", rep.Cells, rep.MaxRQD, cells, skew-1)
	}
	if want := float64(sum) / cells; rep.MeanRQD != want {
		t.Errorf("MeanRQD = %v, want %v", rep.MeanRQD, want)
	}
}

// mustPanic runs f and fails unless it panics with a message containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		v := recover()
		if v == nil {
			t.Fatalf("no panic, want one containing %q", want)
		}
		if msg := fmt.Sprint(v); !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not contain %q", msg, want)
		}
	}()
	f()
}

// settleMany settles cells [from, to) on both switches, one cell per slot
// from slot from on, so the low watermark and the slot floor move past them.
func settleMany(r *Recorder, from, to uint64) {
	for s := from; s < to; s++ {
		c := dep(s, s, cell.Flow{}, cell.Time(s), cell.Time(s))
		r.ShadowDepart(c)
		r.PPSDepart(c)
	}
}

// TestRecorderDuplicatePanics checks every "recorded twice" panic for a cell
// still in the join ring and for one settled and evicted long ago (Seq below
// the low watermark), reporting the first fate from either switch first.
func TestRecorderDuplicatePanics(t *testing.T) {
	// fates are the reports a PPS can make for a cell; fate twice must panic.
	fates := []struct {
		name, want string
		report     func(r *Recorder, c cell.Cell)
	}{
		{"depart", "PPS departure of cell 0 recorded twice", func(r *Recorder, c cell.Cell) { r.PPSDepart(c) }},
		{"drop", "PPS fate of cell 0 recorded twice", func(r *Recorder, c cell.Cell) { r.PPSDrop(drop(0, 0, cell.Flow{}, 0, 1)) }},
		{"expired", "PPS fate of cell 0 recorded twice", func(r *Recorder, c cell.Cell) { r.PPSExpired(c) }},
	}
	c := dep(0, 0, cell.Flow{}, 0, 0)
	for _, evicted := range []bool{false, true} {
		for _, ppsFirst := range []bool{false, true} {
			for _, first := range fates {
				// setup reports cell 0 on both switches in the given order,
				// then (evicted) settles enough later cells, in later slots,
				// for cell 0's ring entry to be reused.
				setup := func() *Recorder {
					r := NewRecorder()
					if ppsFirst {
						first.report(r, c)
						r.ShadowDepart(c)
					} else {
						r.ShadowDepart(c)
						first.report(r, c)
					}
					if evicted {
						settleMany(r, 1, 1000)
						if r.join.lookup(0) != nil {
							t.Fatalf("cell 0 still resident after 1000 later cells")
						}
					}
					return r
				}
				name := fmt.Sprintf("evicted=%v/ppsFirst=%v/%s", evicted, ppsFirst, first.name)
				t.Run(name+"/shadow", func(t *testing.T) {
					r := setup()
					mustPanic(t, "shadow departure of cell 0 recorded twice", func() { r.ShadowDepart(c) })
				})
				for _, second := range fates {
					t.Run(name+"/"+second.name, func(t *testing.T) {
						r := setup()
						mustPanic(t, second.want, func() { second.report(r, c) })
					})
				}
			}
		}
	}
	// Before the shadow departs, a second PPS fate is still a duplicate.
	for _, first := range fates {
		for _, second := range fates {
			t.Run("unsettled/"+first.name+"/"+second.name, func(t *testing.T) {
				r := NewRecorder()
				first.report(r, c)
				mustPanic(t, second.want, func() { second.report(r, c) })
			})
		}
	}
}

// TestReportPanicsOnSeqGap: a Seq that neither switch ever reported, below
// the newest one reported, leaves the books unbalanced.
func TestReportPanicsOnSeqGap(t *testing.T) {
	for _, ppsFirst := range []bool{false, true} {
		r := NewRecorder()
		for _, s := range []uint64{0, 2} {
			c := dep(s, s, cell.Flow{}, 0, cell.Time(s))
			if ppsFirst {
				r.PPSDepart(c)
				r.ShadowDepart(c)
			} else {
				r.ShadowDepart(c)
				r.PPSDepart(c)
			}
		}
		mustPanic(t, "unmatched departures", func() { r.Report() })
	}
}

// TestReportAdmissionPanics keeps the two admission-side audits: every
// offered cell is admitted, rejected or expired, and every admitted cell
// departed the shadow.
func TestReportAdmissionPanics(t *testing.T) {
	r := NewRecorder()
	r.OfferCell()
	mustPanic(t, "admission leak", func() { r.Report() })

	r = NewRecorder()
	for i := 0; i < 2; i++ {
		r.OfferCell()
		r.AdmitCell()
	}
	settleMany(r, 0, 1)
	mustPanic(t, "admitted 2 cells but shadow departed 1", func() { r.Report() })
}

// TestValueCountsMatchSummary is the property behind the recorder's exact RQD
// figures: on random signed per-cell RQDs, its per-value count table
// (stats.Summary) and the report's RQD scalars read from the DelaySet equal
// the nearest-rank rule, mean and maximum over a sorted copy exactly.
func TestValueCountsMatchSummary(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	ps := []float64{0, 50, 99, 99.9, 100}
	for trial := 0; trial < 500; trial++ {
		r := NewRecorder()
		n := rnd.Intn(3000)
		span := int64(1 + rnd.Intn(200))
		off := int64(rnd.Intn(400)) - 200
		sorted := make([]int64, n)
		var sum int64
		for i := range sorted {
			v := off + rnd.Int63n(span)
			if rnd.Intn(50) == 0 {
				v = rnd.Int63n(20001) - 10000 // a rare far outlier on either side
			}
			c := dep(uint64(i), uint64(i), cell.Flow{}, 0, 20000)
			r.ShadowDepart(c)
			c.Depart += cell.Time(v)
			r.PPSDepart(c)
			sorted[i] = v
			sum += v
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, p := range ps {
			if got, want := r.rqd.Percentile(p), stats.Percentile(sorted, p); got != want {
				t.Fatalf("trial %d (n=%d): p%v = %d, sorted copy %d", trial, n, p, got, want)
			}
		}
		rep := r.Report()
		var wantMean float64
		var wantMax int64
		if n > 0 {
			wantMean, wantMax = float64(sum)/float64(n), sorted[n-1]
		}
		if rep.Cells != uint64(n) || rep.MeanRQD != wantMean || int64(rep.MaxRQD) != wantMax {
			t.Fatalf("trial %d: cells/mean/max %d/%v/%d, want %d/%v/%d",
				trial, rep.Cells, rep.MeanRQD, rep.MaxRQD, n, wantMean, wantMax)
		}
		for _, c := range []struct {
			got cell.Time
			p   float64
		}{{rep.P50RQD, 50}, {rep.P99RQD, 99}, {rep.P999RQD, 99.9}} {
			if want := stats.Percentile(sorted, c.p); int64(c.got) != want {
				t.Fatalf("trial %d: report p%v = %d, sorted copy %d", trial, c.p, c.got, want)
			}
		}
	}
}
