package demux

import (
	"math/rand"
	"strings"
	"testing"

	"ppsim/internal/cell"
)

// TestLogCompactsBehindRegisteredCursor drives a log the way a u-RT reader
// does: a few events appended per slot, the registered cursor reading up to
// t-u. The retained array must stay within twice the largest unread window,
// while Len counts every append and the cursor sees every event in order.
func TestLogCompactsBehindRegisteredCursor(t *testing.T) {
	const u, slots = 8, 200000
	rnd := rand.New(rand.NewSource(3))
	var l Log
	var cur Cursor
	l.Register(&cur)
	appended, read, window := 0, 0, 0
	for slot := cell.Time(0); slot < slots; slot++ {
		for i := rnd.Intn(6); i > 0; i-- {
			l.Append(Event{T: slot, Kind: EvArrival, In: cell.Port(appended % 7)})
			appended++
			window = max(window, l.Len()-cur.idx)
		}
		l.Read(&cur, slot-u, func(e Event) {
			if e.T > slot-u || e.In != cell.Port(read%7) {
				t.Fatalf("slot %d: read event %+v as number %d", slot, e, read)
			}
			read++
		})
		if c := cap(l.events); c > 2*window {
			t.Fatalf("slot %d: log retains %d events for a window of %d", slot, c, window)
		}
	}
	if l.Len() != appended {
		t.Errorf("Len = %d, want %d appends", l.Len(), appended)
	}
	if l.base == 0 || window > 6*(u+1) {
		t.Errorf("base %d, window %d: the log never compacted or the window is wrong", l.base, window)
	}
	if read+len(l.events) < appended || read > appended {
		t.Errorf("read %d of %d events with %d retained", read, appended, len(l.events))
	}
}

// TestLogReadBehindCompactedBasePanics: a cursor that was not registered
// cannot read events the log already dropped; it panics instead of silently
// skipping them. Without a registered cursor the log drops nothing.
func TestLogReadBehindCompactedBasePanics(t *testing.T) {
	var kept Log
	var l Log
	var reg Cursor
	l.Register(&reg)
	for slot := cell.Time(0); slot < 1000; slot++ {
		kept.Append(Event{T: slot})
		l.Append(Event{T: slot})
		l.Read(&reg, slot, func(Event) {})
	}
	if l.base == 0 {
		t.Fatal("log with a caught-up reader never dropped its prefix")
	}
	n := 0
	var zero Cursor
	kept.Read(&zero, 1000, func(Event) { n++ })
	if kept.base != 0 || n != 1000 {
		t.Errorf("unregistered log: base %d, a zero cursor read %d of 1000 events", kept.base, n)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "behind the retained log") {
			t.Errorf("Read behind the compacted base: panic %q, want one", msg)
		}
	}()
	var late Cursor
	l.Read(&late, 1000, func(Event) { t.Error("read a dropped event") })
}
