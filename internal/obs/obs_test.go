package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden exposition files")

func TestNopAndEnabled(t *testing.T) {
	if Enabled(nil) || Enabled(nop) {
		t.Fatal("nil / nop must not report enabled")
	}
	if OrNop(nil) != nop {
		t.Fatal("OrNop(nil) must be the shared nop")
	}
	m := NewMemory()
	if !Enabled(m) {
		t.Fatal("Memory must report enabled")
	}
	if OrNop(m) != Recorder(m) {
		t.Fatal("OrNop must pass a real recorder through")
	}
	// The nop must accept everything silently.
	n := nop
	n.Inc("x", 1)
	n.Observe("y", 2)
	n.Span("z")()
}

func TestWith(t *testing.T) {
	if got := With("x_total"); got != "x_total" {
		t.Fatalf("With no labels = %q", got)
	}
	if got := With("x_total", "class", "drop"); got != `x_total{class="drop"}` {
		t.Fatalf("With = %q", got)
	}
	if got := With("x", "a", "1", "b", "2"); got != `x{a="1",b="2"}` {
		t.Fatalf("With two labels = %q", got)
	}
}

func TestCountersAndHistograms(t *testing.T) {
	m := NewMemory()
	m.Inc("c_total", 1)
	m.Inc("c_total", 2)
	m.Observe("h", 0)
	m.Observe("h", 3)
	m.Observe("h", 1000)

	snap := m.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d series, want 2", len(snap))
	}
	if snap[0].Name != "c_total" || snap[0].Value != 3 {
		t.Fatalf("counter series = %+v", snap[0])
	}
	h := snap[1]
	if h.Kind != "histogram" || h.Count != 3 || h.Sum != 1003 {
		t.Fatalf("histogram series = %+v", h)
	}
	// CountBuckets: 0 lands in the le=0 bucket, 3 in le=4, 1000 overflows.
	if h.Buckets[0] != 1 {
		t.Fatalf("le=0 bucket = %d, want 1", h.Buckets[0])
	}
	if h.Buckets[len(h.Buckets)-1] != 1 {
		t.Fatalf("+Inf bucket = %d, want 1", h.Buckets[len(h.Buckets)-1])
	}
}

func TestBucketsFor(t *testing.T) {
	if got := BucketsFor(`rainbar_core_stage_seconds{stage="detect"}`); &got[0] != &LatencyBuckets[0] {
		t.Fatal("_seconds (labeled) must select LatencyBuckets")
	}
	if got := BucketsFor("rainbar_core_locator_misses"); &got[0] != &CountBuckets[0] {
		t.Fatal("count series must select CountBuckets")
	}
}

// Advance moves the clock forward by d.
func (m *ManualClock) Advance(d time.Duration) { m.now.Add(int64(d)) }

// manualMemory is a Memory whose spans are timed by clk.
func manualMemory(clk *ManualClock) *Memory {
	m := NewMemory()
	m.clock = clk
	return m
}

func TestSpanManualClock(t *testing.T) {
	clk := &ManualClock{}
	m := manualMemory(clk)
	end := m.Span("s_seconds")
	clk.Advance(5 * time.Millisecond)
	end()

	snap := m.Snapshot()
	if len(snap) != 1 || snap[0].Count != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if got := snap[0].Sum; got != 0.005 {
		t.Fatalf("span sum = %v, want 0.005", got)
	}
}

// goldenMemory builds the fixed recorder state behind both exposition
// goldens: a labeled counter family, a bare counter, and a labeled
// duration histogram fed by deterministic manual-clock spans.
func goldenMemory() *Memory {
	clk := &ManualClock{}
	m := manualMemory(clk)
	m.Inc(With(MCoreDecodeFailures, "stage", "detect"), 3)
	m.Inc(With(MCoreDecodeFailures, "stage", "sync"), 1)
	m.Inc(MCoreCaptures, 7)
	stage := With(MCoreStageSeconds, "stage", "detect")
	for _, d := range []time.Duration{200 * time.Microsecond, 2 * time.Millisecond, 40 * time.Millisecond} {
		end := m.Span(stage)
		clk.Advance(d)
		end()
	}
	m.Observe(MCoreLocatorMisses, 2)
	return m
}

func TestGoldenExposition(t *testing.T) {
	m := goldenMemory()
	for _, tc := range []struct {
		file  string
		write func(*bytes.Buffer) error
	}{
		{"exposition.prom", func(b *bytes.Buffer) error { return m.WritePrometheus(b) }},
		{"exposition.json", func(b *bytes.Buffer) error { return m.WriteJSON(b) }},
	} {
		var buf bytes.Buffer
		if err := tc.write(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", tc.file)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to write)", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", tc.file, buf.Bytes(), want)
		}
	}
}

// TestExpositionDeterministic pins that two identical recording sequences
// produce byte-identical exposition (the property the goldens rely on).
func TestExpositionDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := goldenMemory().WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := goldenMemory().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("exposition not deterministic")
	}
}

// TestConcurrentRecorder hammers one Memory from many goroutines; run
// under -race (scripts/ci.sh) it is the recorder's data-race gate.
func TestConcurrentRecorder(t *testing.T) {
	m := manualMemory(&ManualClock{})
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			name := With("conc_total", "w", string(rune('a'+w%4)))
			for i := 0; i < each; i++ {
				m.Inc(name, 1)
				m.Inc("shared_total", 1)
				m.Observe("shared_hist", float64(i%8))
				m.Span("shared_seconds")()
			}
		}(w)
	}
	wg.Wait()

	var shared, conc, hist, spans int64
	for _, s := range m.Snapshot() {
		switch {
		case s.Name == "shared_total":
			shared = s.Value
		case s.Name == "shared_hist":
			hist = s.Count
		case s.Name == "shared_seconds":
			spans = s.Count
		case s.Kind == "counter":
			conc += s.Value
		}
	}
	if want := int64(workers * each); shared != want || conc != want || hist != want || spans != want {
		t.Fatalf("lost updates: shared=%d conc=%d hist=%d spans=%d want %d", shared, conc, hist, spans, want)
	}
}
