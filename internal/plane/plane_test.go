package plane

import (
	"testing"
	"testing/quick"

	"ppsim/internal/cell"
)

// bank bundles a store with a plane so tests can enqueue plain cells.
type bank struct {
	s *cell.Store
	p *Plane
}

func newBank(id cell.Plane, n int) *bank {
	s := cell.NewStore()
	return &bank{s: s, p: New(id, n, s)}
}

func (b *bank) enqueue(c cell.Cell) error {
	r := b.s.Put(c)
	if err := b.p.Enqueue(r); err != nil {
		b.s.Free(r)
		return err
	}
	return nil
}

func (b *bank) pop(j cell.Port) cell.Cell { return b.s.Take(b.p.Pop(j)) }

func mk(seq uint64, out cell.Port) cell.Cell {
	return cell.New(seq, 0, cell.Flow{In: 0, Out: out}, 0)
}

func TestEnqueuePopFIFO(t *testing.T) {
	b := newBank(0, 4)
	p := b.p
	for i := uint64(0); i < 5; i++ {
		if err := b.enqueue(mk(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if p.QueueLen(2) != 5 || p.Backlog() != 5 {
		t.Fatalf("QueueLen=%d Backlog=%d", p.QueueLen(2), p.Backlog())
	}
	h, ok := p.Head(2)
	if !ok || h.Seq != 0 {
		t.Errorf("Head = %v %v", h, ok)
	}
	if r, ok := p.HeadRef(2); !ok || b.s.At(r).Seq != 0 {
		t.Errorf("HeadRef = %v %v", r, ok)
	}
	for i := uint64(0); i < 5; i++ {
		if c := b.pop(2); c.Seq != i {
			t.Errorf("Pop = %d, want %d", c.Seq, i)
		}
	}
	if _, ok := p.Head(2); ok {
		t.Error("Head on empty queue should report !ok")
	}
	if p.Backlog() != 0 || b.s.Live() != 0 {
		t.Errorf("backlog %d / live %d should be zero", p.Backlog(), b.s.Live())
	}
}

func TestQueuesAreIndependent(t *testing.T) {
	b := newBank(1, 3)
	b.enqueue(mk(0, 0))
	b.enqueue(mk(1, 2))
	if b.p.QueueLen(0) != 1 || b.p.QueueLen(1) != 0 || b.p.QueueLen(2) != 1 {
		t.Error("queues must be independent per output")
	}
}

func TestEnqueueRangeCheck(t *testing.T) {
	b := newBank(0, 2)
	if err := b.enqueue(mk(0, 5)); err == nil {
		t.Error("out-of-range destination must error")
	}
	if b.s.Live() != 0 {
		t.Error("rejected cell must not stay live in the store")
	}
}

func TestFailurePreventsEnqueueNotDrain(t *testing.T) {
	b := newBank(0, 2)
	b.enqueue(mk(0, 1))
	b.p.Fail()
	if !b.p.Failed() {
		t.Error("Failed should report true")
	}
	if err := b.enqueue(mk(1, 1)); err == nil {
		t.Error("enqueue to failed plane must error")
	}
	if c := b.pop(1); c.Seq != 0 {
		t.Error("queued cells must still drain after failure")
	}
}

func TestPeakQueue(t *testing.T) {
	b := newBank(0, 2)
	for i := uint64(0); i < 7; i++ {
		b.enqueue(mk(i, 0))
	}
	b.pop(0)
	b.pop(0)
	b.enqueue(mk(7, 0))
	if b.p.PeakQueue() != 7 {
		t.Errorf("PeakQueue = %d, want 7", b.p.PeakQueue())
	}
}

func TestPopBatch(t *testing.T) {
	b := newBank(0, 2)
	for i := uint64(0); i < 6; i++ {
		b.enqueue(mk(i, 1))
	}
	refs := b.p.PopBatch(1, 4, nil)
	if len(refs) != 4 {
		t.Fatalf("PopBatch(max=4) returned %d refs", len(refs))
	}
	for i, r := range refs {
		if got := b.s.At(r).Seq; got != uint64(i) {
			t.Errorf("batch[%d].Seq = %d, want %d", i, got, i)
		}
	}
	if b.p.Backlog() != 2 || b.p.QueueLen(1) != 2 {
		t.Errorf("Backlog = %d, QueueLen = %d after batch", b.p.Backlog(), b.p.QueueLen(1))
	}
	// max < 0 drains the rest; appending to the same dst keeps FIFO order.
	refs = b.p.PopBatch(1, -1, refs)
	if len(refs) != 6 || b.p.Backlog() != 0 {
		t.Fatalf("full drain: %d refs, backlog %d", len(refs), b.p.Backlog())
	}
	if got := b.s.At(refs[5]).Seq; got != 5 {
		t.Errorf("last batch ref Seq = %d, want 5", got)
	}
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(0, 0, cell.NewStore())
}

func TestNewNilStorePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(0, 2, nil)
}

// Property: per-output FIFO order is preserved for any enqueue pattern.
func TestPerOutputOrder(t *testing.T) {
	prop := func(dests []uint8) bool {
		const n = 4
		b := newBank(0, n)
		want := make([][]uint64, n)
		for i, d := range dests {
			out := cell.Port(d % n)
			if err := b.enqueue(mk(uint64(i), out)); err != nil {
				return false
			}
			want[out] = append(want[out], uint64(i))
		}
		for j := 0; j < n; j++ {
			for _, w := range want[j] {
				if c := b.pop(cell.Port(j)); c.Seq != w {
					return false
				}
			}
			if b.p.QueueLen(cell.Port(j)) != 0 {
				return false
			}
		}
		return b.p.Backlog() == 0 && b.s.Live() == 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
