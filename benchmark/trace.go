package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"rainbar/internal/obs"
)

// Layer names, one per module of the program a span can fall in.
const (
	layerOp        = "op"        // the benchmark's own span around one op
	layerTransport = "transport" // FileCodec, Collector
	layerEncode    = "encode"    // core EncodeFrame and Frame.Render
	layerLink      = "link"      // channel, screen and camera
	layerDecode    = "decode"    // core Receiver and its decode stages
	layerServe     = "serve"     // serve drivers, admission and queue wait
	layerJournal   = "journal"   // the serve journal's file writes and syncs
)

// span is one timed call, kept in memory until the run ends.
type span struct {
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for none
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans around the benchmark's calls into each layer, and
// doubles as the obs.Recorder handed to the codec so the decode stages
// (detect, locate, extract, correct) arrive as child spans of the call
// that ran them. A nil *tracer records nothing, so untraced and traced
// runs share one code path.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	// stack holds the open spans of the client goroutine; recorder spans
	// from the codec's workers nest under its top.
	stack []int
}

func newTracer() *tracer { return &tracer{epoch: wallNow()} }

func (t *tracer) now() int64 { return int64(wallNow().Sub(t.epoch)) }

// wallNow is the one wall-clock read in code the program calls back into:
// the tracer as the codec's obs.Recorder, and the serve driver and journal
// file wrappers. A reading lands only in the benchmark's spans and op
// times, never in a value handed back to the program, so outputs stay a
// pure function of the inputs.
func wallNow() time.Time {
	return time.Now() //lint:allow RB-D4 benchmark timing: readings go into spans and op times only, never back into program outputs
}

// begin opens a span on the client goroutine and returns its id.
func (t *tracer) begin(op int, layer, name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Op: op, Layer: layer, Name: name, Start: t.now(), Parent: parent})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin opened; spans close in LIFO order.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = t.now()
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
}

// add records a finished span that was timed elsewhere (by a server
// worker, say) and has no parent.
func (t *tracer) add(op int, layer, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Op: op, Layer: layer, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Parent: -1})
	t.mu.Unlock()
}

// Inc implements obs.Recorder; counts come from the public APIs instead.
func (t *tracer) Inc(string, int64) {}

// Observe implements obs.Recorder.
func (t *tracer) Observe(string, float64) {}

// Span implements obs.Recorder: the codec's stage spans, keyed by the
// stage label, become children of the client's innermost open span.
func (t *tracer) Span(name string) func() {
	stage := name
	if i := strings.Index(name, `stage="`); i >= 0 {
		stage = strings.TrimSuffix(name[i+len(`stage="`):], `"}`)
	}
	t.mu.Lock()
	parent, op := -1, -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
		op = t.spans[parent].Op
	}
	t.spans = append(t.spans, span{Op: op, Layer: layerDecode, Name: stage, Start: t.now(), Parent: parent})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		t.spans[id].End = t.now()
		t.mu.Unlock()
	}
}

var _ obs.Recorder = (*tracer)(nil)

// analysis holds the self time of every span: its duration minus the part
// of it that its children cover.
type analysis struct {
	spans []span
	self  []time.Duration
}

func (t *tracer) analyze() *analysis {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	a := &analysis{spans: spans, self: make([]time.Duration, len(spans))}
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			ivs = append(ivs, [2]int64{max(spans[c].Start, s.Start), min(spans[c].End, s.End)})
		}
		a.self[i] = s.dur() - union(ivs)
	}
	return a
}

// union returns the total length covered by the intervals.
func union(ivs [][2]int64) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curS, curE int64
	open := false
	for _, iv := range ivs {
		if iv[1] <= iv[0] {
			continue
		}
		switch {
		case !open:
			curS, curE, open = iv[0], iv[1], true
		case iv[0] > curE:
			total += curE - curS
			curS, curE = iv[0], iv[1]
		case iv[1] > curE:
			curE = iv[1]
		}
	}
	if open {
		total += curE - curS
	}
	return time.Duration(total)
}

// selfBy sums self time over spans matching layer and, when name is not
// empty, name.
func (a *analysis) selfBy(layer, name string) time.Duration {
	var d time.Duration
	for i, s := range a.spans {
		if s.Layer == layer && (name == "" || s.Name == name) {
			d += a.self[i]
		}
	}
	return d
}

// totalBy sums whole durations (children included) over matching spans
// that are not nested in another span of the same layer.
func (a *analysis) totalBy(layer string) time.Duration {
	var d time.Duration
	for _, s := range a.spans {
		if s.Layer == layer && (s.Parent < 0 || a.spans[s.Parent].Layer != layer) {
			d += s.dur()
		}
	}
	return d
}

// durations lists whole durations of the matching spans.
func (a *analysis) durations(layer, name string) []time.Duration {
	var out []time.Duration
	for _, s := range a.spans {
		if s.Layer == layer && s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// opCoverage returns, summed over every op span, the op time and the part
// of it that the op's layer spans cover. With a non-nil counted, ops
// outside it add op time but no covered time.
func (a *analysis) opCoverage(counted map[int]bool) (opTime, covered time.Duration) {
	ivs := make(map[int][][2]int64)
	for _, s := range a.spans {
		if s.Layer != layerOp && (counted == nil || counted[s.Op]) {
			ivs[s.Op] = append(ivs[s.Op], [2]int64{s.Start, s.End})
		}
	}
	for _, s := range a.spans {
		if s.Layer != layerOp {
			continue
		}
		opTime += s.dur()
		clipped := make([][2]int64, 0, len(ivs[s.Op]))
		for _, iv := range ivs[s.Op] {
			clipped = append(clipped, [2]int64{max(iv[0], s.Start), min(iv[1], s.End)})
		}
		covered += union(clipped)
	}
	return opTime, covered
}

// write dumps every span as JSON lines under dir, one file per run.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("trace: write %s: %w", path, err)
	}
	return path, nil
}
