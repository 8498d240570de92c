package serve

import (
	"sync"
	"time"
)

// ManualWatch is a WatchClock driven by explicit Advance calls, for
// deterministic supervision tests: no timer fires until test code moves
// the clock past its due time.
type ManualWatch struct {
	mu     sync.Mutex
	now    time.Duration
	timers []manualTimer
}

type manualTimer struct {
	due time.Duration
	ch  chan time.Time
}

// NewManualWatch returns a watch at time zero with no timers pending.
func NewManualWatch() *ManualWatch { return &ManualWatch{} }

// After registers a timer due d from the watch's current time.
// Non-positive durations fire immediately.
func (m *ManualWatch) After(d time.Duration) <-chan time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		// The channel was just created with capacity 1 and has no other
		// sender, so this send never blocks.
		ch <- time.Time{}
		return ch
	}
	m.timers = append(m.timers, manualTimer{due: m.now + d, ch: ch})
	return ch
}

// Advance moves the watch forward, firing every timer that comes due.
func (m *ManualWatch) Advance(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.now += d
	rest := m.timers[:0]
	for _, t := range m.timers {
		if t.due <= m.now {
			// Each timer channel has capacity 1 and receives exactly one
			// send (it leaves m.timers here), so the send never blocks.
			t.ch <- time.Time{}
		} else {
			rest = append(rest, t)
		}
	}
	m.timers = rest
}

// Flush fires every pending timer regardless of due time (test
// teardown: unblocks goroutines still waiting on abandoned timers).
func (m *ManualWatch) Flush() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, t := range m.timers {
		// Each timer channel has capacity 1 and receives exactly one send
		// (m.timers is cleared below), so the send never blocks.
		t.ch <- time.Time{}
	}
	m.timers = nil
}

// Waiting returns the number of pending timers (tests use it to know a
// worker has reached its watchdog select).
func (m *ManualWatch) Waiting() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.timers)
}
