package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"sync"
	"testing"
)

func enabledRegistry() *Registry {
	r := NewRegistry()
	r.SetEnabled(true)
	return r
}

func TestDefaultStartsDisabled(t *testing.T) {
	if Default().Enabled() {
		t.Fatal("the process-wide default registry must start disabled")
	}
}

func TestDisabledRegistryIsNoOp(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	c.Inc()
	c.Add(10)
	g.Set(3.5)
	h.Observe(1)
	if c.Value() != 0 {
		t.Errorf("disabled counter recorded %d", c.Value())
	}
	if g.Value() != 0 {
		t.Errorf("disabled gauge recorded %v", g.Value())
	}
	if h.Count() != 0 {
		t.Errorf("disabled histogram recorded %d observations", h.Count())
	}
	if sp := r.StartSpan("s"); sp.reg != nil {
		t.Error("disabled StartSpan must return the inert zero span")
	}
}

func TestEnableActivatesExistingHandles(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("late")
	c.Inc() // dropped: disabled
	r.SetEnabled(true)
	c.Inc()
	if c.Value() != 1 {
		t.Fatalf("counter = %d, want 1 (pre-enable increment dropped, post-enable kept)", c.Value())
	}
}

func TestNilHandlesAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(2)
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.quantile(0.5) != 0 {
		t.Error("nil metric handles must read as zero")
	}
	if s := h.Snapshot(); s.Count != 0 {
		t.Error("nil histogram snapshot must be zero")
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := enabledRegistry()
	c := r.Counter("concurrent")
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestGetOrCreateReturnsSameHandle(t *testing.T) {
	r := enabledRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Error("Counter must return a stable handle per name")
	}
	if r.Gauge("x") != r.Gauge("x") {
		t.Error("Gauge must return a stable handle per name")
	}
	if r.Histogram("x") != r.Histogram("x") {
		t.Error("Histogram must return a stable handle per name")
	}
}

func TestResetZeroesInPlace(t *testing.T) {
	r := enabledRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	c.Add(5)
	g.Set(2)
	h.Observe(1)
	r.Reset()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("Reset must zero all metrics")
	}
	c.Inc()
	if c.Value() != 1 {
		t.Error("handles must stay live across Reset")
	}
}

func TestSnapshotJSONShape(t *testing.T) {
	r := enabledRegistry()
	r.Counter("a.hits").Add(3)
	r.Gauge("b.level").Set(1.5)
	r.Histogram("c.seconds").Observe(0.25)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Counters   map[string]uint64 `json:"counters"`
		Gauges     map[string]float64
		Histograms map[string]HistogramSnapshot
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	if decoded.Counters["a.hits"] != 3 {
		t.Errorf("counter a.hits = %d, want 3", decoded.Counters["a.hits"])
	}
	if math.Abs(decoded.Gauges["b.level"]-1.5) > 1e-12 {
		t.Errorf("gauge b.level = %v, want 1.5", decoded.Gauges["b.level"])
	}
	hs := decoded.Histograms["c.seconds"]
	if hs.Count != 1 || math.Abs(hs.P50-0.25) > 1e-12 {
		t.Errorf("histogram c.seconds = %+v, want count 1, p50 0.25 (exact via min/max clamp)", hs)
	}
}

func TestSnapshotSerializationIsDeterministic(t *testing.T) {
	r := enabledRegistry()
	for _, name := range []string{"z", "a", "m"} {
		r.Counter(name).Inc()
	}
	first, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("snapshot serialization unstable:\n%s\n%s", first, again)
		}
	}
}

func TestCounterNamesSorted(t *testing.T) {
	r := enabledRegistry()
	r.Counter("b")
	r.Counter("a")
	names := r.CounterNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("CounterNames = %v, want [a b]", names)
	}
}

// CounterNames returns the sorted names of all registered counters —
// convenience for tests and for the OBSERVABILITY.md catalogue check.
func (r *Registry) CounterNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
