package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. Safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d (d < 0 panics: counters only go up).
func (c *Counter) Add(d int64) {
	if d < 0 {
		panic("obs: counter decremented")
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reports the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can move in both directions. Safe for concurrent
// use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value reports the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Hist is a registry histogram: a LogHist behind a mutex, so it takes signed
// samples of any magnitude, keeps them with exact n, mean, min and max, and
// is safe for concurrent use.
type Hist struct {
	mu sync.Mutex
	h  LogHist
}

// Add records one sample.
func (h *Hist) Add(v int64) {
	h.mu.Lock()
	h.h.Record(v)
	h.mu.Unlock()
}

// Quantiles freezes the headline quantiles.
func (h *Hist) Quantiles() Quantiles {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Summary()
}

// Registry names and owns a set of metrics. Lookups get-or-create, so
// instrumentation sites never need registration boilerplate; a name reused
// with a different kind panics (a programming error, not a runtime
// condition). Safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	entries map[string]interface{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]interface{})}
}

func (r *Registry) lookup(name string, mk func() interface{}) interface{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		return e
	}
	e := mk()
	r.entries[name] = e
	return e
}

// Counter returns the counter with this name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	e := r.lookup(name, func() interface{} { return &Counter{} })
	c, ok := e.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q is a %T, not a counter", name, e))
	}
	return c
}

// Gauge returns the gauge with this name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	e := r.lookup(name, func() interface{} { return &Gauge{} })
	g, ok := e.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q is a %T, not a gauge", name, e))
	}
	return g
}

// Histogram returns the histogram with this name, creating it if needed.
func (r *Registry) Histogram(name string) *Hist {
	e := r.lookup(name, func() interface{} { return &Hist{} })
	h, ok := e.(*Hist)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q is a %T, not a histogram", name, e))
	}
	return h
}

// MetricSnapshot is the frozen value of one metric.
type MetricSnapshot struct {
	Name string
	// Kind is "counter", "gauge" or "histogram".
	Kind string
	// Value is the counter/gauge value; for histograms, the sample total.
	Value int64
	// Quantiles is the histogram's headline summary (histograms only).
	Quantiles Quantiles
}

// Snapshot is a point-in-time copy of every metric, sorted by name —
// deterministic regardless of registration or update order.
type Snapshot []MetricSnapshot

// Snapshot freezes the registry.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	names := make([]string, 0, len(r.entries))
	for n := range r.entries {
		names = append(names, n)
	}
	entries := make(map[string]interface{}, len(r.entries))
	for n, e := range r.entries {
		entries[n] = e
	}
	r.mu.Unlock()

	sort.Strings(names)
	snap := make(Snapshot, 0, len(names))
	for _, n := range names {
		switch m := entries[n].(type) {
		case *Counter:
			snap = append(snap, MetricSnapshot{Name: n, Kind: "counter", Value: m.Value()})
		case *Gauge:
			snap = append(snap, MetricSnapshot{Name: n, Kind: "gauge", Value: m.Value()})
		case *Hist:
			q := m.Quantiles()
			snap = append(snap, MetricSnapshot{Name: n, Kind: "histogram", Value: q.N, Quantiles: q})
		}
	}
	return snap
}

// WriteText renders the snapshot one metric per line, in name order — the
// format served by ppsexp's -debug-addr /metrics endpoint. A counter or gauge
// prints "name value"; a histogram prints "name " followed by its
// Quantiles.String() ("n=... mean=... min=... p50=... p99=... p999=...
// max=...").
func (s Snapshot) WriteText(w io.Writer) error {
	for _, m := range s {
		var err error
		if m.Kind == "histogram" {
			_, err = fmt.Fprintf(w, "%s %s\n", m.Name, m.Quantiles)
		} else {
			_, err = fmt.Fprintf(w, "%s %d\n", m.Name, m.Value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
