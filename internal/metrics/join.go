package metrics

import "ppsim/internal/cell"

// joinEntry is one cell's place in the join ring: the cell's Seq plus one
// (so the zero value names no cell) and its departure slot from each switch.
type joinEntry struct {
	tag    uint64
	shadow cell.Time // cell.None until the shadow departure is reported
	pps    cell.Time // cell.None until the PPS fate is reported; dropMark, expiredMark
}

func (e *joinEntry) settled() bool { return e.shadow != cell.None && e.pps != cell.None }

// joinRing holds the two departure streams' join state for the cells between
// the oldest unsettled Seq and the newest reported one. A cell is settled
// once both its shadow departure and its PPS fate are known; every Seq below
// the low watermark is settled and its entry may be reused. The ring is a
// power-of-two array indexed by Seq modulo its length, so its memory follows
// the cells in flight between the two switches, not the run length.
//
// Entries settled during the current departure slot are kept until the next
// slot starts (floor is the low watermark as of the slot's first report), so
// RQD can still answer for every cell that departed this slot.
type joinRing struct {
	buf   []joinEntry
	low   uint64    // oldest unsettled Seq
	floor uint64    // low as of the first report of slot; entries from floor on are live
	high  uint64    // one past the newest reported Seq
	slot  cell.Time // latest departure slot reported
}

// report returns the entry of cell seq, departing at slot t (cell.None when
// the report carries no departure slot), creating the entries up to seq. It
// returns nil when seq is already settled, i.e. the report is a duplicate.
func (j *joinRing) report(seq uint64, t cell.Time) *joinEntry {
	if t > j.slot {
		j.slot, j.floor = t, j.low
	}
	if seq < j.low {
		return nil
	}
	if seq-j.floor >= uint64(len(j.buf)) {
		j.grow(seq - j.floor + 1)
	}
	mask := uint64(len(j.buf) - 1)
	for ; j.high <= seq; j.high++ {
		j.buf[j.high&mask] = joinEntry{tag: j.high + 1, shadow: cell.None, pps: cell.None}
	}
	return &j.buf[seq&mask]
}

// grow resizes the ring to the smallest power of two holding n entries,
// moving every entry to its slot under the new mask.
func (j *joinRing) grow(n uint64) {
	size := uint64(16)
	for size < n {
		size *= 2
	}
	buf := make([]joinEntry, size)
	for _, e := range j.buf {
		if e.tag != 0 {
			buf[(e.tag-1)&(size-1)] = e
		}
	}
	j.buf = buf
}

// settle advances the low watermark past every settled cell.
func (j *joinRing) settle() {
	mask := uint64(len(j.buf) - 1)
	for j.low < j.high && j.buf[j.low&mask].settled() {
		j.low++
	}
}

// lookup returns the entry of cell seq, or nil when seq was never reported
// or its entry has been reused.
func (j *joinRing) lookup(seq uint64) *joinEntry {
	if seq >= j.high {
		return nil
	}
	e := &j.buf[seq&uint64(len(j.buf)-1)]
	if e.tag != seq+1 {
		return nil
	}
	return e
}

// unsettled reports the number of cells between the low watermark and the
// newest report — zero once every reported cell is settled and no Seq in
// between is missing.
func (j *joinRing) unsettled() uint64 { return j.high - j.low }
