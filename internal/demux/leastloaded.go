package demux

import (
	"fmt"

	"ppsim/internal/cell"
)

// LocalLeastLoaded is a fully-distributed algorithm that balances using the
// only state a demultiplexor can legally count: its own past dispatches.
// For every arriving cell it picks, among planes with a free input gate,
// the plane to which this input has sent the fewest cells for this
// destination (tie: lowest plane index).
//
// It looks smarter than round-robin, and on smooth traffic it is — but it
// remains a deterministic fully-distributed state machine, so Theorem 6's
// steering adversary aligns it exactly like the others (experiment E17's
// universality check). No amount of local cleverness escapes the
// Omega((R/r - 1) N) bound; only global information does.
//
// Selection is O(1) amortized per cell on switches with K <= 64 planes: the
// per-flow counters live in a planeBuckets structure whose bucket scan
// reproduces the historical lowest-index argmin exactly (DESIGN.md §15),
// and the free-gate set comes from the Env's GateMasker capability when
// present. Wider switches keep the original O(K) scan over a counts slice.
type LocalLeastLoaded struct {
	sendScratch
	env    Env
	masker GateMasker // nil → per-plane free-gate scan
	counts map[cell.Flow]*planeBuckets
	wide   map[cell.Flow][]uint64 // K > 64 fallback
}

// NewLocalLeastLoaded returns the algorithm. It returns an error if K < r'.
func NewLocalLeastLoaded(env Env) (*LocalLeastLoaded, error) {
	if int64(env.Planes()) < env.RPrime() {
		return nil, fmt.Errorf("demux: least-loaded needs K >= r' (K=%d, r'=%d)", env.Planes(), env.RPrime())
	}
	a := &LocalLeastLoaded{env: env, masker: gateMasker(env)}
	if env.Planes() <= 64 {
		a.counts = make(map[cell.Flow]*planeBuckets)
	} else {
		a.wide = make(map[cell.Flow][]uint64)
	}
	return a, nil
}

// Name implements Algorithm.
func (a *LocalLeastLoaded) Name() string { return "local-least-loaded" }

// Slot implements Algorithm.
func (a *LocalLeastLoaded) Slot(t cell.Time, arrivals []cell.Cell) ([]Send, error) {
	if len(arrivals) == 0 {
		return nil, nil
	}
	if a.counts == nil {
		return a.slotWide(t, arrivals)
	}
	sends := a.take()
	for _, c := range arrivals {
		pb := a.flowBuckets(c.Flow)
		best := pb.argmin(freeMask(a.env, a.masker, c.Flow.In, t))
		if best == cell.NoPlane {
			return nil, fmt.Errorf("demux: least-loaded input %d has no free gate at slot %d", c.Flow.In, t)
		}
		pb.inc(best)
		sends = append(sends, Send{Cell: c, Plane: best})
	}
	return a.keep(sends), nil
}

// slotWide is the historical O(K)-scan path, kept for K > 64 where plane
// sets do not fit a bitmask.
func (a *LocalLeastLoaded) slotWide(t cell.Time, arrivals []cell.Cell) ([]Send, error) {
	sends := a.take()
	for _, c := range arrivals {
		counts := a.wideCounts(c.Flow)
		best := cell.NoPlane
		for k := 0; k < a.env.Planes(); k++ {
			p := cell.Plane(k)
			if a.env.InputGateFreeAt(c.Flow.In, p) > t {
				continue
			}
			if best == cell.NoPlane || counts[p] < counts[best] {
				best = p
			}
		}
		if best == cell.NoPlane {
			return nil, fmt.Errorf("demux: least-loaded input %d has no free gate at slot %d", c.Flow.In, t)
		}
		counts[best]++
		sends = append(sends, Send{Cell: c, Plane: best})
	}
	return a.keep(sends), nil
}

func (a *LocalLeastLoaded) flowBuckets(f cell.Flow) *planeBuckets {
	pb := a.counts[f]
	if pb == nil {
		pb = newPlaneBuckets(a.env.Planes())
		a.counts[f] = pb
	}
	return pb
}

func (a *LocalLeastLoaded) wideCounts(f cell.Flow) []uint64 {
	c := a.wide[f]
	if c == nil {
		c = make([]uint64, a.env.Planes())
		a.wide[f] = c
	}
	return c
}

// Buffered implements Algorithm (bufferless).
func (a *LocalLeastLoaded) Buffered(cell.Port) int { return 0 }

// WouldChoose implements Prober: the least-loaded plane for the flow
// assuming all gates free.
func (a *LocalLeastLoaded) WouldChoose(in, out cell.Port) (cell.Plane, bool) {
	f := cell.Flow{In: in, Out: out}
	if a.counts != nil {
		pb := a.flowBuckets(f)
		return pb.argmin(^uint64(0) >> uint(64-a.env.Planes())), true
	}
	counts := a.wideCounts(f)
	best := cell.Plane(0)
	for k := 1; k < a.env.Planes(); k++ {
		if counts[k] < counts[best] {
			best = cell.Plane(k)
		}
	}
	return best, true
}

// IdleInvariant certifies the fast-forward capability: the per-flow counts
// change only on dispatch.
func (a *LocalLeastLoaded) IdleInvariant() bool { return true }
