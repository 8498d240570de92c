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

func TestDrawCostModel(t *testing.T) {
	// The paper reports ~31 ms per frame with four render threads.
	four := DrawCost(4)
	if four < 25*time.Millisecond || four > 40*time.Millisecond {
		t.Errorf("DrawCost(4) = %v, want ≈31ms", four)
	}
	// More threads must never be slower.
	prev := DrawCost(1)
	for threads := 2; threads <= 8; threads++ {
		cur := DrawCost(threads)
		if cur > prev {
			t.Errorf("DrawCost(%d) = %v > DrawCost(%d) = %v", threads, cur, threads-1, prev)
		}
		prev = cur
	}
	if got := DrawCost(0); got != DrawCost(1) {
		t.Errorf("DrawCost(0) = %v, want DrawCost(1)", got)
	}
}

func TestMaxRealTimeRate(t *testing.T) {
	// Four threads must sustain ~30 fps (the paper's target), one must not.
	if r := MaxRealTimeRate(4); r < 28 {
		t.Errorf("MaxRealTimeRate(4) = %.1f, want ≥ 28", r)
	}
	if r := MaxRealTimeRate(1); r > 15 {
		t.Errorf("MaxRealTimeRate(1) = %.1f, want < 15", r)
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
