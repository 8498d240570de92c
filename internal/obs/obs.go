// Package obs is the pipeline observability layer: counters, fixed-bucket
// histograms and per-stage span timing for every subsystem the paper's
// evaluation reasons about stage by stage (locator detection, per-block
// classification, RS correction load, frame-sync disambiguation,
// transport retransmission, experiment sweep latency).
//
// Design constraints, in priority order:
//
//   - Zero dependencies: stdlib only, like the rest of the repository.
//   - Zero behavioral coupling: recorders observe the pipeline, they never
//     feed a decode decision. Enabling any Recorder leaves every decoded
//     bit and every experiment table byte-identical (pinned by
//     experiment's equivalence test).
//   - Determinism contract (DESIGN.md §7): contract packages never read
//     the wall clock. All span timing flows through a Clock injected into
//     the Recorder at construction; the wall clock exists only here,
//     behind the telemetry escape hatch, and rainbar-lint's RB-O1 rule
//     keeps recorder/clock construction out of contract packages.
//   - Negligible no-op cost: the default Recorder is a no-op whose calls
//     are empty interface dispatches, so instrumented hot paths (e.g.
//     core's receiver) stay within noise of the uninstrumented build.
//
// Series names follow Prometheus conventions (snake_case, _total for
// counters, _seconds for duration histograms) and carry labels inline in
// the name: "rainbar_core_stage_seconds{stage=\"detect\"}" is one series.
// Use With to build labeled names deterministically.
package obs

import (
	"sync/atomic"
	"time"
)

// Recorder receives pipeline telemetry. Implementations must be safe for
// concurrent use: the experiment engine records from every sweep worker
// and a Codec is shared across goroutines.
type Recorder interface {
	// Inc adds delta to the named counter.
	Inc(name string, delta int64)
	// Observe records one value into the named histogram.
	Observe(name string, v float64)
	// Span starts a timed span and returns the func that ends it; the
	// elapsed clock time is recorded in seconds as an observation on the
	// named histogram. Time comes from the Recorder's Clock, so span
	// durations are deterministic whenever the clock is.
	Span(name string) func()
}

// nopRecorder is the default Recorder: it drops everything.
type nopRecorder struct{}

func (nopRecorder) Inc(string, int64)       {}
func (nopRecorder) Observe(string, float64) {}
func (nopRecorder) Span(string) func()      { return nopEnd }

var (
	nop    Recorder = nopRecorder{}
	nopEnd          = func() {}
)

// OrNop returns r, or the no-op Recorder when r is nil, so call sites
// never need a nil check.
func OrNop(r Recorder) Recorder {
	if r == nil {
		return nop
	}
	return r
}

// Enabled reports whether r actually records anything. Instrumented hot
// paths use it to skip work that only exists to be observed (e.g. tallying
// per-color classification counts).
func Enabled(r Recorder) bool {
	return r != nil && r != nop
}

// Clock supplies span time as an offset from an arbitrary epoch. Only
// differences between readings are meaningful.
type Clock interface {
	Now() time.Duration
}

// wallClock reads the host monotonic clock. It is the telemetry escape
// hatch of the determinism contract: wall time may appear in metrics
// output, never in decoded bits, and contract packages must not construct
// it (rainbar-lint RB-O1) — they receive a Recorder already carrying one.
type wallClock struct{ epoch time.Time }

func (w wallClock) Now() time.Duration { return time.Since(w.epoch) }

// NewWallClock returns a Clock backed by the host monotonic clock.
func NewWallClock() Clock { return wallClock{epoch: time.Now()} }

// ManualClock is a deterministic Clock for tests and bit-reproducible
// runs: Now returns a fixed reading (zero unless a test advances it), so
// span durations are an explicit function of the caller, not the host.
type ManualClock struct {
	now atomic.Int64
}

// Now implements Clock.
func (m *ManualClock) Now() time.Duration { return time.Duration(m.now.Load()) }

// With returns name labeled with the given key/value pairs, in argument
// order: With("x_total", "class", "drop") == `x_total{class="drop"}`.
// Callers on hot paths should precompute labeled names once.
func With(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	out := make([]byte, 0, len(name)+16)
	out = append(out, name...)
	out = append(out, '{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, kv[i]...)
		out = append(out, '=', '"')
		out = append(out, kv[i+1]...)
		out = append(out, '"')
	}
	out = append(out, '}')
	return string(out)
}
