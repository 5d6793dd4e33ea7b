package cell

import "fmt"

// Ref is a 32-bit handle into a Store: the slot index in the store's slab.
// Queues and heaps hold Refs instead of 64-byte Cell values, so moving a
// cell between stages copies four bytes and the cell body is written once,
// at dispatch, into a contiguous slab.
type Ref uint32

// Store is a columnar arena for in-flight cells: one contiguous slab plus a
// LIFO freelist, so the steady state allocates nothing. A Store is not safe
// for concurrent use.
type Store struct {
	cells []Cell
	free  []uint32
	live  int
}

// NewStore returns an empty Store.
func NewStore() *Store { return &Store{} }

// Put writes c into the store and returns its Ref, reusing a freed slot when
// one exists. It panics when the 32-bit index space is exhausted (2^32 cells
// live at once — far beyond any switch backlog this repo simulates).
func (s *Store) Put(c Cell) Ref {
	var idx uint32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
		s.cells[idx] = c
	} else {
		if uint64(len(s.cells)) > uint64(^uint32(0)) {
			panic(fmt.Sprintf("cell: store overflow (%d cells live)", len(s.cells)))
		}
		idx = uint32(len(s.cells))
		s.cells = append(s.cells, c)
	}
	s.live++
	return Ref(idx)
}

// At returns a pointer to the cell r refers to. The pointer is valid until
// the slab grows (the next Put) — callers must not hold it across a Put,
// only read or stamp fields and move on.
func (s *Store) At(r Ref) *Cell { return &s.cells[r] }

// Free returns r's slot to the freelist. Freeing a ref twice corrupts the
// freelist; the fabric's conservation audit cross-checks Live() against the
// structural cell counts to catch such bugs.
func (s *Store) Free(r Ref) {
	s.free = append(s.free, uint32(r))
	s.live--
}

// Take copies the cell out and frees its slot in one step.
func (s *Store) Take(r Ref) Cell {
	c := *s.At(r)
	s.Free(r)
	return c
}

// Live reports the number of refs currently allocated — exactly the cells
// sitting in plane queues plus output resequencers, which the fabric audit
// verifies.
func (s *Store) Live() int { return s.live }
