package screen

import (
	"testing"
	"time"

	"rainbar/internal/raster"
)

func frames(n int) []*raster.Image {
	out := make([]*raster.Image, n)
	for i := range out {
		out[i] = raster.New(4, 4)
	}
	return out
}

func TestNewDisplayValidation(t *testing.T) {
	if _, err := NewDisplay(nil, 10, 0); err == nil {
		t.Error("empty frame list accepted")
	}
	if _, err := NewDisplay(frames(1), 0, 0); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewDisplay(frames(1), -5, 0); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestNewDisplayRejectsMismatchedFrames(t *testing.T) {
	// Every frame must be a complete image of the panel's one size: a
	// camera films all of them through one capture geometry.
	cases := map[string][]*raster.Image{
		"different sizes": {raster.New(64, 64), raster.New(32, 32)},
		"different width": {raster.New(64, 64), raster.New(64, 64), raster.New(63, 64)},
		"nil frame":       {raster.New(4, 4), nil},
		"empty image":     {{}},
		"short buffer":    {{W: 4, H: 4, Pix: raster.New(4, 3).Pix}},
	}
	for name, fs := range cases {
		if _, err := NewDisplay(fs, 10, 0); err == nil {
			t.Errorf("%s: display accepted", name)
		}
	}
}

func TestFrameAt(t *testing.T) {
	d, err := NewDisplay(frames(3), 10, 0) // 100ms per frame
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		t    time.Duration
		want int
	}{
		{-1 * time.Millisecond, -1},
		{0, 0},
		{99 * time.Millisecond, 0},
		{100 * time.Millisecond, 1},
		{250 * time.Millisecond, 2},
		{299 * time.Millisecond, 2},
		{300 * time.Millisecond, -1},
		{time.Hour, -1},
	}
	for _, c := range cases {
		if got := d.FrameAt(c.t); got != c.want {
			t.Errorf("FrameAt(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestFrameAtWithStartOffset(t *testing.T) {
	d, err := NewDisplay(frames(2), 20, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.FrameAt(40 * time.Millisecond); got != -1 {
		t.Errorf("before start: %d, want -1", got)
	}
	if got := d.FrameAt(60 * time.Millisecond); got != 0 {
		t.Errorf("first frame: %d, want 0", got)
	}
	if got := d.FrameAt(110 * time.Millisecond); got != 1 {
		t.Errorf("second frame: %d, want 1", got)
	}
}

func TestPeriodAndDuration(t *testing.T) {
	d, err := NewDisplay(frames(5), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Period(); got != 100*time.Millisecond {
		t.Errorf("Period = %v", got)
	}
	if got := d.Duration(); got != 500*time.Millisecond {
		t.Errorf("Duration = %v", got)
	}
	if got := d.End(); got != 500*time.Millisecond {
		t.Errorf("End = %v", got)
	}
	if d.NumFrames() != 5 {
		t.Errorf("NumFrames = %d", d.NumFrames())
	}
	if d.Rate() != 10 {
		t.Errorf("Rate = %v", d.Rate())
	}
}

func TestBlendAt(t *testing.T) {
	d, err := NewDisplay(frames(3), 10, 0) // switches at 100ms, 200ms
	if err != nil {
		t.Fatal(err)
	}
	d.Transition = 20 * time.Millisecond

	cases := []struct {
		t     time.Duration
		a, b  int
		alpha float64
	}{
		{0, 0, 0, 1},                         // first frame never blends
		{50 * time.Millisecond, 0, 0, 1},     // mid-frame
		{105 * time.Millisecond, 0, 1, 0.25}, // early transition
		{115 * time.Millisecond, 0, 1, 0.75}, // late transition
		{120 * time.Millisecond, 1, 1, 1},    // transition over
		{205 * time.Millisecond, 1, 2, 0.25},
	}
	for _, c := range cases {
		a, b, alpha := d.BlendAt(c.t)
		if a != c.a || b != c.b || alpha != c.alpha {
			t.Errorf("BlendAt(%v) = (%d, %d, %v), want (%d, %d, %v)", c.t, a, b, alpha, c.a, c.b, c.alpha)
		}
	}
}

func TestBlendAtZeroTransition(t *testing.T) {
	d, err := NewDisplay(frames(2), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b, alpha := d.BlendAt(101 * time.Millisecond)
	if a != 1 || b != 1 || alpha != 1 {
		t.Errorf("no-transition blend = (%d, %d, %v)", a, b, alpha)
	}
}

func TestSwitchTime(t *testing.T) {
	d, err := NewDisplay(frames(3), 20, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.SwitchTime(0); got != 5*time.Millisecond {
		t.Errorf("SwitchTime(0) = %v", got)
	}
	if got := d.SwitchTime(2); got != 105*time.Millisecond {
		t.Errorf("SwitchTime(2) = %v", got)
	}
}

func TestNewRenderedDisplayValidation(t *testing.T) {
	render := func(int) *raster.Image { return raster.New(4, 4) }
	cases := map[string]func() (*Display, error){
		"no frames":     func() (*Display, error) { return NewRenderedDisplay(0, 4, 4, render, 10, 0) },
		"zero width":    func() (*Display, error) { return NewRenderedDisplay(3, 0, 4, render, 10, 0) },
		"negative size": func() (*Display, error) { return NewRenderedDisplay(3, 4, -1, render, 10, 0) },
		"nil renderer":  func() (*Display, error) { return NewRenderedDisplay(3, 4, 4, nil, 10, 0) },
		"zero rate":     func() (*Display, error) { return NewRenderedDisplay(3, 4, 4, render, 0, 0) },
	}
	for name, mk := range cases {
		if _, err := mk(); err == nil {
			t.Errorf("%s: display accepted", name)
		}
	}
	d, err := NewRenderedDisplay(3, 5, 4, func(int) *raster.Image { return raster.New(5, 4) }, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w, h := d.Size(); w != 5 || h != 4 || d.NumFrames() != 3 || d.Resident() != 0 {
		t.Fatalf("Size %dx%d, NumFrames %d, Resident %d", w, h, d.NumFrames(), d.Resident())
	}
}

// countingDisplay is a rendered display of n 4x4 frames whose renderer
// counts its calls per frame index.
func countingDisplay(t *testing.T, n int, rate float64) (*Display, []int) {
	t.Helper()
	renders := make([]int, n)
	d, err := NewRenderedDisplay(n, 4, 4, func(i int) *raster.Image {
		renders[i]++
		return raster.New(4, 4)
	}, rate, 0)
	if err != nil {
		t.Fatal(err)
	}
	return d, renders
}

func TestRenderedDisplayRendersOnDemand(t *testing.T) {
	d, renders := countingDisplay(t, 4, 10)
	f := d.Frame(2)
	if d.Frame(2) != f || renders[2] != 1 || d.Resident() != 1 {
		t.Fatalf("second Frame(2) call: renders %v, resident %d", renders, d.Resident())
	}
	if renders[0] != 0 || renders[1] != 0 || renders[3] != 0 {
		t.Fatalf("frames rendered before they were asked for: %v", renders)
	}
}

func TestReleaseDropsOnlyPassedFrames(t *testing.T) {
	d, renders := countingDisplay(t, 4, 10) // switches at 100, 200, 300 ms
	d.Transition = 20 * time.Millisecond
	for i := range 4 {
		d.Frame(i)
	}
	// Before the start and at frame 0 nothing has passed.
	d.Release(-time.Millisecond)
	d.Release(50 * time.Millisecond)
	if d.Resident() != 4 {
		t.Fatalf("resident %d after releasing before frame 1, want 4", d.Resident())
	}
	// Inside frame 2's transition the panel still shows frame 1.
	d.Release(210 * time.Millisecond)
	if d.Resident() != 3 || d.frames[0] != nil || d.frames[1] == nil {
		t.Fatalf("resident %d after 210ms, want frames 1-3", d.Resident())
	}
	// Once the transition is over frame 1 goes too.
	d.Release(220 * time.Millisecond)
	if d.Resident() != 2 || d.frames[1] != nil {
		t.Fatalf("resident %d after 220ms, want frames 2-3", d.Resident())
	}
	// A frame asked for again after its release is drawn again and
	// released again.
	d.Frame(0)
	if renders[0] != 2 || d.Resident() != 3 {
		t.Fatalf("re-render: renders %v, resident %d", renders, d.Resident())
	}
	d.Release(d.End())
	if d.Resident() != 0 {
		t.Fatalf("resident %d after the end, want 0", d.Resident())
	}
	for i, f := range d.frames {
		if f != nil {
			t.Errorf("frame %d still held after the end", i)
		}
	}
}

func TestReleaseKeepsCallerFrames(t *testing.T) {
	fs := frames(3)
	d, err := NewDisplay(fs, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.Release(d.End())
	for i := range fs {
		if d.Frame(i) != fs[i] {
			t.Fatalf("slice-backed frame %d released", i)
		}
	}
	if d.Resident() != 0 {
		t.Fatalf("slice-backed display reports %d resident frames", d.Resident())
	}
}
