package camera

import (
	"math"
	"testing"
	"time"

	"rainbar/internal/channel"
	"rainbar/internal/colorspace"
	"rainbar/internal/raster"
	"rainbar/internal/screen"
)

// cleanChannel is head-on, noise-free, distortion-free, nearly full-frame.
func cleanChannel() *channel.Channel {
	cfg := channel.DefaultConfig()
	cfg.BlurSigma = 0
	cfg.NoiseStdDev = 0
	cfg.LensK1, cfg.LensK2 = 0, 0
	cfg.JitterPx = 0
	cfg.DistanceCM = 8.0 // scale 0.98
	cfg.Ambient = channel.AmbientDark
	return channel.MustNew(cfg)
}

// solidFrames returns n solid-color frames cycling white/red/green/blue.
func solidFrames(n, w, h int) []*raster.Image {
	colors := []colorspace.RGB{
		colorspace.RGBWhite, colorspace.RGBRed,
		colorspace.RGBGreen, colorspace.RGBBlue,
	}
	out := make([]*raster.Image, n)
	for i := range out {
		img := raster.New(w, h)
		img.Fill(colors[i%len(colors)])
		out[i] = img
	}
	return out
}

func TestValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Errorf("Default invalid: %v", err)
	}
	bad := []Camera{
		{RateFPS: 0, ReadoutFraction: 0.9},
		{RateFPS: -1, ReadoutFraction: 0.9},
		{RateFPS: 30, ReadoutFraction: 0},
		{RateFPS: 30, ReadoutFraction: 1.2},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid camera accepted", i)
		}
	}
}

// TestValidateRate pins the capture-rate range (0, MaxRateFPS]: NaN, the
// infinities and rates fast enough to stall filming are refused.
func TestValidateRate(t *testing.T) {
	for _, fps := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), 240.5, 1e4, 2e9} {
		if err := (Camera{RateFPS: fps, ReadoutFraction: 0.9}).Validate(); err == nil {
			t.Errorf("RateFPS %v accepted", fps)
		}
	}
	for _, fps := range []float64{1, 30, 60, 240} {
		if err := (Camera{RateFPS: fps, ReadoutFraction: 0.9}).Validate(); err != nil {
			t.Errorf("RateFPS %v rejected: %v", fps, err)
		}
	}
	if err := (Camera{RateFPS: 30, ReadoutFraction: math.NaN()}).Validate(); err == nil {
		t.Error("NaN readout fraction accepted")
	}
}

func TestPeriod(t *testing.T) {
	c := Camera{RateFPS: 25, ReadoutFraction: 0.9}
	if got := c.Period(); got != 40*time.Millisecond {
		t.Errorf("Period = %v, want 40ms", got)
	}
}

func TestSlowDisplayProducesCleanCaptures(t *testing.T) {
	// f_d = 10, f_c = 30: every capture fits inside one display period,
	// so no capture should be mixed.
	d, err := screen.NewDisplay(solidFrames(4, 60, 60), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	caps, err := Default().Film(d, cleanChannel())
	if err != nil {
		t.Fatal(err)
	}
	if len(caps) == 0 {
		t.Fatal("no captures")
	}
	mixed := 0
	for _, c := range caps {
		if c.Mixed() {
			mixed++
		}
	}
	// At 10/30 fps a capture can still straddle a display boundary once
	// per display frame; but most captures must be clean.
	if mixed > len(caps)/2 {
		t.Fatalf("%d/%d captures mixed at f_d=f_c/3", mixed, len(caps))
	}
	// Every display frame must be captured at least twice cleanly
	// (f_d <= f_c/2 guarantee used by blur assessment).
	seen := map[int]int{}
	for _, c := range caps {
		if !c.Mixed() {
			seen[c.SourceFrames[0]]++
		}
	}
	for i := 0; i < 4; i++ {
		if seen[i] < 2 {
			t.Errorf("frame %d captured cleanly only %d times, want ≥ 2", i, seen[i])
		}
	}
}

func TestFastDisplayProducesMixedCaptures(t *testing.T) {
	// f_d = 20 > f_c/2 = 15: rolling shutter must mix frames.
	d, err := screen.NewDisplay(solidFrames(8, 60, 60), 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	cam := Default()
	cam.Phase = 5 * time.Millisecond // ensure scans straddle boundaries
	caps, err := cam.Film(d, cleanChannel())
	if err != nil {
		t.Fatal(err)
	}
	anyMixed := false
	for _, c := range caps {
		if c.Mixed() {
			anyMixed = true
			if len(c.RowBoundaries) != len(c.SourceFrames)-1 {
				t.Fatalf("boundaries %d, sources %d", len(c.RowBoundaries), len(c.SourceFrames))
			}
			// Sources must be consecutive display frames.
			for i := 1; i < len(c.SourceFrames); i++ {
				if c.SourceFrames[i] != c.SourceFrames[i-1]+1 {
					t.Fatalf("non-consecutive sources %v", c.SourceFrames)
				}
			}
		}
	}
	if !anyMixed {
		t.Fatal("no mixed captures at f_d > f_c/2")
	}
}

func TestMixedCaptureRowsComeFromRightFrames(t *testing.T) {
	// Two solid frames with distinct colors: in a mixed capture, rows above
	// the boundary must classify as the first color, rows below as the
	// second.
	d, err := screen.NewDisplay(solidFrames(4, 80, 80), 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	cam := Default()
	cam.Phase = 8 * time.Millisecond
	caps, err := cam.Film(d, cleanChannel())
	if err != nil {
		t.Fatal(err)
	}
	cl := colorspace.NewClassifier(0.3)
	checked := false
	for _, c := range caps {
		if !c.Mixed() || len(c.SourceFrames) != 2 {
			continue
		}
		boundary := c.RowBoundaries[0]
		if boundary <= 8 || boundary >= 72 {
			continue // too close to the dark frame edge to sample safely
		}
		wantTop := colorspace.Color(c.SourceFrames[0] % 4)
		wantBot := colorspace.Color(c.SourceFrames[1] % 4)
		top := cl.ClassifyRGB(c.Image.At(40, boundary-6))
		bot := cl.ClassifyRGB(c.Image.At(40, boundary+6))
		if top != wantTop {
			t.Errorf("row above boundary = %v, want %v", top, wantTop)
		}
		if bot != wantBot {
			t.Errorf("row below boundary = %v, want %v", bot, wantBot)
		}
		checked = true
	}
	if !checked {
		t.Skip("no usable mixed capture in this configuration")
	}
}

func TestFilmRejectsInvalidCamera(t *testing.T) {
	d, err := screen.NewDisplay(solidFrames(1, 8, 8), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := Camera{RateFPS: 0, ReadoutFraction: 0.5}
	if _, err := bad.Film(d, cleanChannel()); err == nil {
		t.Fatal("invalid camera filmed successfully")
	}
}

func TestCaptureCountMatchesRates(t *testing.T) {
	// 6 frames at 10 fps = 600 ms of display; at 30 fps the camera starts
	// a capture every 33.3 ms -> 18 captures overlap the display window.
	d, err := screen.NewDisplay(solidFrames(6, 40, 40), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	caps, err := Default().Film(d, cleanChannel())
	if err != nil {
		t.Fatal(err)
	}
	if len(caps) < 16 || len(caps) > 19 {
		t.Fatalf("capture count = %d, want ≈18", len(caps))
	}
}

func TestTimingJitterDeterministicPerSeed(t *testing.T) {
	d, err := screen.NewDisplay(solidFrames(4, 40, 40), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	film := func(seed int64) []time.Duration {
		cam := Default()
		cam.TimingJitter = 4 * time.Millisecond
		cam.Seed = seed
		caps, err := cam.Film(d, cleanChannel())
		if err != nil {
			t.Fatal(err)
		}
		out := make([]time.Duration, len(caps))
		for i, c := range caps {
			out[i] = c.Start
		}
		return out
	}
	a := film(5)
	b := film(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different capture times")
		}
	}
	c := film(6)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical capture times")
	}
}

func TestTimingJitterNeverOverlapsCaptures(t *testing.T) {
	d, err := screen.NewDisplay(solidFrames(6, 40, 40), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	cam := Default()
	cam.TimingJitter = 50 * time.Millisecond // absurd; must be clamped
	cam.Seed = 9
	caps, err := cam.Film(d, cleanChannel())
	if err != nil {
		t.Fatal(err)
	}
	readout := time.Duration(float64(cam.Period()) * cam.ReadoutFraction)
	for i := 1; i < len(caps); i++ {
		if caps[i].Start < caps[i-1].Start+readout {
			t.Fatalf("captures %d and %d overlap: %v then %v", i-1, i, caps[i-1].Start, caps[i].Start)
		}
	}
}

func TestTransitionBlendsRows(t *testing.T) {
	// Two solid frames with an LCD transition: a capture scanning across
	// the switch must contain intermediate colors between the two.
	frames := solidFrames(2, 60, 60) // white then red
	d, err := screen.NewDisplay(frames, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.Transition = 40 * time.Millisecond // long, to make the ramp visible
	cam := Camera{RateFPS: 10, ReadoutFraction: 0.9, Phase: 95 * time.Millisecond}
	caps, err := cam.Film(d, cleanChannel())
	if err != nil {
		t.Fatal(err)
	}
	foundBlend := false
	for _, c := range caps {
		for y := 0; y < c.Image.H; y += 2 {
			p := c.Image.At(c.Image.W/2, y)
			// A white->red blend passes through pinks: G and B equal,
			// well below R but well above 0.
			if p.R > 200 && p.G > 60 && p.G < 200 && absDiff(p.G, p.B) < 30 {
				foundBlend = true
			}
		}
	}
	if !foundBlend {
		t.Fatal("no blended rows found across the transition")
	}
}

func absDiff(a, b uint8) int {
	if a > b {
		return int(a - b)
	}
	return int(b - a)
}
