package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cells")
	c.Add(3)
	c.Inc()
	if r.Counter("cells").Value() != 4 {
		t.Errorf("counter = %d, want 4", r.Counter("cells").Value())
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-2)
	if r.Gauge("depth").Value() != 5 {
		t.Errorf("gauge = %d, want 5", r.Gauge("depth").Value())
	}
	h := r.Histogram("rqd")
	for _, v := range []int64{-3, 0, 3, 4, 100000} {
		h.Add(v)
	}
	if r.Histogram("rqd") != h {
		t.Error("second lookup returned a different histogram")
	}
	// Nothing is lost off either end: the extremes are exact.
	q := h.Quantiles()
	if q.N != 5 || q.Min != -3 || q.Max != 100000 || q.P50 != 3 {
		t.Errorf("quantiles = %+v, want n=5 min=-3 p50=3 max=100000", q)
	}
	for _, m := range r.Snapshot() {
		if m.Name == "rqd" && (m.Kind != "histogram" || m.Value != 5 || m.Quantiles != q) {
			t.Errorf("snapshot rqd = %+v, want histogram of 5 with %+v", m, q)
		}
	}
}

func TestRegistryKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Error("reusing a counter name as a gauge must panic")
		}
	}()
	r.Gauge("x")
}

func TestCounterDecrementPanics(t *testing.T) {
	var c Counter
	defer func() {
		if recover() == nil {
			t.Error("negative counter increment must panic")
		}
	}()
	c.Add(-1)
}

// TestSnapshotDeterminism registers metrics in scrambled order and checks
// two snapshots agree and come out name-sorted.
func TestSnapshotDeterminism(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		r.Counter(name).Add(1)
	}
	r.Gauge("beta").Set(9)
	r.Histogram("hist").Add(3)

	s1 := r.Snapshot()
	s2 := r.Snapshot()
	if len(s1) != 5 || len(s2) != 5 {
		t.Fatalf("snapshot sizes %d, %d, want 5", len(s1), len(s2))
	}
	wantOrder := []string{"alpha", "beta", "hist", "mid", "zeta"}
	for i, m := range s1 {
		if m.Name != wantOrder[i] {
			t.Errorf("snapshot[%d] = %q, want %q", i, m.Name, wantOrder[i])
		}
		if s2[i].Name != m.Name || s2[i].Value != m.Value || s2[i].Kind != m.Kind {
			t.Errorf("snapshots differ at %d: %+v vs %+v", i, m, s2[i])
		}
	}
}

func TestSnapshotWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs").Add(2)
	r.Histogram("ms").Add(15)
	r.Histogram("ms").Add(-3)
	r.Histogram("ms").Add(100000)
	var b strings.Builder
	if err := r.Snapshot().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	// p99 and p999 are the lower bound of the log bucket holding 100000.
	want := "ms n=3 mean=33337.33 min=-3 p50=15 p99=98304 p999=98304 max=100000\nruns 2\n"
	if out := b.String(); out != want {
		t.Errorf("WriteText =\n%s\nwant\n%s", out, want)
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("n").Inc()
				switch j {
				case 0:
					r.Histogram("h").Add(-3)
				case 1:
					r.Histogram("h").Add(100000)
				default:
					r.Histogram("h").Add(int64(j % 4))
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Quantiles().N; got != 8000 {
		t.Errorf("hist total = %d, want 8000", got)
	}
	q := r.Snapshot()[0].Quantiles
	if q.N != 8000 || q.Min != -3 || q.Max != 100000 {
		t.Errorf("snapshot quantiles = %+v, want n=8000 min=-3 max=100000", q)
	}
	var b strings.Builder
	if err := r.Snapshot().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if out := b.String(); !strings.Contains(out, "h n=8000 ") || !strings.Contains(out, " min=-3 ") || !strings.Contains(out, " max=100000\n") {
		t.Errorf("WriteText = %q, want h with n=8000 min=-3 max=100000", out)
	}
}
