package cell

import (
	"sync"
	"testing"
	"testing/quick"
)

func storeCell(seq uint64) Cell {
	return New(seq, seq, Flow{In: Port(seq % 7), Out: Port(seq % 5)}, Time(seq))
}

func TestStorePutAtFree(t *testing.T) {
	s := NewStore()
	r := s.Put(storeCell(42))
	if got := s.At(r); got.Seq != 42 || got.Flow != storeCell(42).Flow {
		t.Fatalf("At = %v", got)
	}
	if s.Live() != 1 {
		t.Fatalf("Live = %d, want 1", s.Live())
	}
	c := s.Take(r)
	if c.Seq != 42 || s.Live() != 0 {
		t.Fatalf("Take = %v, Live = %d", c, s.Live())
	}
}

func TestStoreReusesFreedSlots(t *testing.T) {
	s := NewStore()
	a := s.Put(storeCell(1))
	b := s.Put(storeCell(2))
	s.Free(a)
	c := s.Put(storeCell(3)) // LIFO freelist: must land in a's slot
	if c != a {
		t.Errorf("freed slot not reused: got %v, want %v", c, a)
	}
	if s.At(b).Seq != 2 || s.At(c).Seq != 3 {
		t.Error("reuse clobbered a live cell")
	}
	if len(s.cells) != 2 {
		t.Errorf("slab grew to %d despite freelist", len(s.cells))
	}
}

// TestStoreShardsAreIndependent: each simulation owns its Store, so stores
// share nothing — not a slab, a freelist or a live count. Four stores, each
// filled and half freed on its own goroutine, must hold exactly their own
// cells (under -race any shared state is a reported data race).
func TestStoreShardsAreIndependent(t *testing.T) {
	const stores, half = 4, 32
	ss, refs := make([]*Store, stores), make([][]Ref, stores)
	var wg sync.WaitGroup
	for i := range ss {
		ss[i] = NewStore()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 2*half; j++ {
				refs[i] = append(refs[i], ss[i].Put(storeCell(uint64(i*1000+j))))
			}
			for _, r := range refs[i][half:] {
				ss[i].Free(r)
			}
		}(i)
	}
	wg.Wait()
	for i, s := range ss {
		if s.Live() != half {
			t.Errorf("store %d: Live = %d, want %d", i, s.Live(), half)
		}
		for j, r := range refs[i][:half] {
			if got := s.At(r).Seq; got != uint64(i*1000+j) {
				t.Errorf("store %d ref %d: Seq = %d, want %d", i, j, got, i*1000+j)
			}
		}
	}
}

// Property: an arbitrary interleaving of puts and frees behaves like a map
// from handle to cell, and Live always matches the model's size.
func TestStoreMatchesMapModel(t *testing.T) {
	prop := func(ops []uint16) bool {
		s := NewStore()
		model := map[Ref]uint64{}
		var handles []Ref
		seq := uint64(0)
		for _, op := range ops {
			if op%3 != 0 || len(handles) == 0 { // put
				seq++
				r := s.Put(storeCell(seq))
				if _, dup := model[r]; dup {
					return false // live ref handed out twice
				}
				model[r] = seq
				handles = append(handles, r)
			} else { // free
				i := int(op/3) % len(handles)
				r := handles[i]
				if s.At(r).Seq != model[r] {
					return false
				}
				s.Free(r)
				delete(model, r)
				handles[i] = handles[len(handles)-1]
				handles = handles[:len(handles)-1]
			}
			if s.Live() != len(model) {
				return false
			}
		}
		for _, r := range handles {
			if s.At(r).Seq != model[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
