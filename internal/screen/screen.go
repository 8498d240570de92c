// Package screen models the sender's display: a sequence of rendered
// barcode frames shown at a fixed display rate f_d. Time is simulated — an
// offset from an arbitrary epoch — so rolling-shutter interactions with the
// camera are exact and tests are hermetic (no wall clock).
//
// It also carries the paper's §IV draw-time cost model (≈31 ms per frame
// with four render threads on the Galaxy S4), used by the experiment
// harness to reason about the real-time display budget.
package screen

import (
	"fmt"
	"time"

	"rainbar/internal/raster"
)

// Display is a frame sequence shown at RateFPS starting at Start.
// The zero value is unusable; use NewDisplay or NewRenderedDisplay.
type Display struct {
	// frames holds the sequence. A slice-backed display holds the caller's
	// frames for its whole life. A rendered display holds frame i only
	// from its first Frame call until Release drops it; nil otherwise.
	frames []*raster.Image
	w, h   int
	// render draws frame i; nil for a slice-backed display.
	render func(i int) *raster.Image
	// low is the first frame index Release has not dropped: every rendered
	// frame below it is nil.
	low      int
	resident int
	rate     float64
	start    time.Duration

	// Transition is the LCD response time: for this long after a frame
	// switch the panel shows a blend of the old and new frame. Zero means
	// instantaneous switching. Captures overlapping a transition see
	// corrupted rows, which is a large part of why real screen-camera
	// links degrade at high display rates.
	Transition time.Duration
}

// NewDisplay creates a display timeline over frames the caller owns.
// rateFPS must be positive and frames non-empty, and every frame a
// complete image of one shared size: the panel has one resolution, and a
// camera films every frame through one capture geometry. The display
// never releases these frames.
func NewDisplay(frames []*raster.Image, rateFPS float64, start time.Duration) (*Display, error) {
	if len(frames) == 0 {
		return nil, fmt.Errorf("screen: no frames to display")
	}
	for i, f := range frames {
		switch {
		case f == nil:
			return nil, fmt.Errorf("screen: frame %d is nil", i)
		case f.W <= 0 || f.H <= 0 || len(f.Pix) != f.W*f.H:
			return nil, fmt.Errorf("screen: frame %d is a malformed %dx%d image of %d pixels", i, f.W, f.H, len(f.Pix))
		case f.W != frames[0].W || f.H != frames[0].H:
			return nil, fmt.Errorf("screen: frame %d is %dx%d, frame 0 is %dx%d", i, f.W, f.H, frames[0].W, frames[0].H)
		}
	}
	if rateFPS <= 0 {
		return nil, fmt.Errorf("screen: display rate %.2f fps must be positive", rateFPS)
	}
	return &Display{frames: frames, w: frames[0].W, h: frames[0].H, rate: rateFPS, start: start}, nil
}

// NewRenderedDisplay creates a display timeline of n w x h frames that
// draws frame i with render(i) the first time a scan shows it, so a
// sequence no camera ever films whole is never held whole. render must
// return a fresh w x h image the display may recycle: Release hands each
// frame's pixels back to the raster pool once no later scan can show it.
func NewRenderedDisplay(n, w, h int, render func(i int) *raster.Image, rateFPS float64, start time.Duration) (*Display, error) {
	switch {
	case n <= 0:
		return nil, fmt.Errorf("screen: no frames to display")
	case w <= 0 || h <= 0:
		return nil, fmt.Errorf("screen: %dx%d frames", w, h)
	case render == nil:
		return nil, fmt.Errorf("screen: nil frame renderer")
	case rateFPS <= 0:
		return nil, fmt.Errorf("screen: display rate %.2f fps must be positive", rateFPS)
	}
	return &Display{frames: make([]*raster.Image, n), w: w, h: h, render: render, rate: rateFPS, start: start}, nil
}

// Rate returns the display rate in frames per second.
func (d *Display) Rate() float64 { return d.rate }

// Period returns the duration each frame stays on screen.
func (d *Display) Period() time.Duration {
	return time.Duration(float64(time.Second) / d.rate)
}

// NumFrames returns the number of frames in the sequence.
func (d *Display) NumFrames() int { return len(d.frames) }

// Duration returns the total on-screen time of the sequence.
func (d *Display) Duration() time.Duration {
	return time.Duration(float64(len(d.frames)) * float64(time.Second) / d.rate)
}

// End returns the instant the last frame leaves the screen.
func (d *Display) End() time.Duration { return d.start + d.Duration() }

// FrameAt returns the frame index visible at time t, or -1 if the screen
// shows nothing (before start or after the last frame).
func (d *Display) FrameAt(t time.Duration) int {
	if t < d.start || t >= d.End() {
		return -1
	}
	idx := int(float64(t-d.start) / float64(time.Second) * d.rate)
	if idx >= len(d.frames) { // guard float rounding at the boundary
		idx = len(d.frames) - 1
	}
	return idx
}

// Size returns the frames' width and height without rendering any.
func (d *Display) Size() (w, h int) { return d.w, d.h }

// Frame returns the image for index i, rendering it on a rendered
// display's first request. It panics on a bad index; callers pass indices
// obtained from FrameAt or BlendAt.
func (d *Display) Frame(i int) *raster.Image {
	if f := d.frames[i]; f != nil {
		return f
	}
	f := d.render(i)
	d.frames[i] = f
	d.low = min(d.low, i)
	d.resident++
	return f
}

// Resident returns how many rendered frames the display holds: frames it
// drew on request and has not yet released. A slice-backed display holds
// none of its own.
func (d *Display) Resident() int { return d.resident }

// Release tells a rendered display that no scan will again show the
// screen before t, so every frame the panel can no longer show from t on
// (neither on its own nor as the old frame of a transition) goes back to
// the raster pool. Scans run forward in time; a later Frame call for a
// released frame renders it again. Release is a no-op on a slice-backed
// display, whose frames belong to the caller.
func (d *Display) Release(t time.Duration) {
	if d.render == nil || t < d.start {
		return
	}
	keep := len(d.frames) // at or past the end nothing can be shown again
	if t < d.End() {
		keep, _, _ = d.BlendAt(t)
	}
	for ; d.low < keep; d.low++ {
		if f := d.frames[d.low]; f != nil {
			raster.Recycle(f)
			d.frames[d.low] = nil
			d.resident--
		}
	}
}

// SwitchTime returns the instant frame i replaces frame i-1 on screen.
func (d *Display) SwitchTime(i int) time.Duration {
	return d.start + time.Duration(float64(i)*float64(time.Second)/d.rate)
}

// BlendAt describes what the panel shows at time t: frame b, or — within
// the transition window after a switch — a blend of frames a and b with
// weight alpha toward b (alpha in [0, 1)). Outside the display interval
// b is -1.
func (d *Display) BlendAt(t time.Duration) (a, b int, alpha float64) {
	b = d.FrameAt(t)
	a = b
	alpha = 1
	if b <= 0 || d.Transition <= 0 {
		return a, b, alpha
	}
	since := t - d.SwitchTime(b)
	if since < d.Transition {
		return b - 1, b, float64(since) / float64(d.Transition)
	}
	return a, b, alpha
}

// DefaultTransition is a typical LCD response time.
const DefaultTransition = 10 * time.Millisecond
