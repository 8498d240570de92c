package channel

import (
	"fmt"
	"math"
	"testing"

	"rainbar/internal/colorspace"
	"rainbar/internal/geometry"
	"rainbar/internal/raster"
)

func testFrame() *raster.Image {
	img := raster.New(160, 90)
	img.Fill(colorspace.RGBWhite)
	img.FillRect(40, 20, 30, 30, colorspace.RGBRed)
	img.FillRect(90, 40, 30, 30, colorspace.RGBGreen)
	return img
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"default", func(c *Config) {}, true},
		{"zero distance", func(c *Config) { c.DistanceCM = 0 }, false},
		{"negative distance", func(c *Config) { c.DistanceCM = -5 }, false},
		{"brightness too high", func(c *Config) { c.ScreenBrightness = 1.5 }, false},
		{"brightness negative", func(c *Config) { c.ScreenBrightness = -0.1 }, false},
		{"angle too steep", func(c *Config) { c.ViewAngleDeg = 75 }, false},
		{"angle negative ok", func(c *Config) { c.ViewAngleDeg = -30 }, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			c.mut(&cfg)
			err := cfg.Validate()
			if c.ok && err != nil {
				t.Errorf("Validate() = %v, want nil", err)
			}
			if !c.ok && err == nil {
				t.Error("Validate() = nil, want error")
			}
		})
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DistanceCM = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted invalid config")
	}
}

// TestNewRejectsNonFinite: New refuses a NaN or infinite value in every
// float field of the condition, and still takes a negative jitter, which
// acts as its magnitude.
func TestNewRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name  string
		field func(*Config) *float64
	}{
		{"DistanceCM", func(c *Config) *float64 { return &c.DistanceCM }},
		{"ViewAngleDeg", func(c *Config) *float64 { return &c.ViewAngleDeg }},
		{"ScreenBrightness", func(c *Config) *float64 { return &c.ScreenBrightness }},
		{"BlurSigma", func(c *Config) *float64 { return &c.BlurSigma }},
		{"NoiseStdDev", func(c *Config) *float64 { return &c.NoiseStdDev }},
		{"ChromaNoiseStdDev", func(c *Config) *float64 { return &c.ChromaNoiseStdDev }},
		{"LensK1", func(c *Config) *float64 { return &c.LensK1 }},
		{"LensK2", func(c *Config) *float64 { return &c.LensK2 }},
		{"JitterPx", func(c *Config) *float64 { return &c.JitterPx }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			t.Run(fmt.Sprintf("%s=%v", f.name, v), func(t *testing.T) {
				cfg := DefaultConfig()
				*f.field(&cfg) = v
				if _, err := New(cfg); err == nil {
					t.Fatalf("New accepted %s = %v", f.name, v)
				}
			})
		}
	}
	cfg := DefaultConfig()
	cfg.JitterPx = -2
	if _, err := New(cfg); err != nil {
		t.Fatalf("New rejected a negative jitter: %v", err)
	}
}

func TestCaptureDeterministicForSeed(t *testing.T) {
	frame := testFrame()
	cap1, err := MustNew(DefaultConfig()).Capture(frame)
	if err != nil {
		t.Fatal(err)
	}
	cap2, err := MustNew(DefaultConfig()).Capture(frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cap1.Pix {
		if cap1.Pix[i] != cap2.Pix[i] {
			t.Fatal("same seed produced different captures")
		}
	}
	cfg := DefaultConfig()
	cfg.Seed = 2
	cap3, err := MustNew(cfg).Capture(frame)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range cap1.Pix {
		if cap1.Pix[i] != cap3.Pix[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical captures")
	}
}

func TestHeadOnCleanChannelPreservesColors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlurSigma = 0
	cfg.NoiseStdDev = 0
	cfg.LensK1, cfg.LensK2 = 0, 0
	cfg.JitterPx = 0
	cfg.DistanceCM = 8.2 // scale ~0.956, nearly full frame
	ch := MustNew(cfg)
	frame := testFrame()
	got, err := ch.Capture(frame)
	if err != nil {
		t.Fatal(err)
	}
	// The red square center maps near its scaled position; classify it.
	cl := colorspace.NewClassifier(0.3)
	// center of frame is invariant under pure scaling about center
	center := got.At(got.W/2, got.H/2)
	if cl.ClassifyRGB(center) != colorspace.White {
		t.Errorf("center pixel %v not white", center)
	}
}

func TestDistanceShrinksProjection(t *testing.T) {
	frame := testFrame()
	brightArea := func(d float64) int {
		cfg := DefaultConfig()
		cfg.DistanceCM = d
		cfg.NoiseStdDev = 0
		cfg.Ambient = AmbientDark
		got, err := MustNew(cfg).Capture(frame)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, p := range got.Pix {
			if int(p.R)+int(p.G)+int(p.B) > 150 {
				n++
			}
		}
		return n
	}
	near := brightArea(8)
	mid := brightArea(12)
	far := brightArea(18)
	if !(near > mid && mid > far) {
		t.Fatalf("projected area not shrinking with distance: %d, %d, %d", near, mid, far)
	}
}

func TestViewAngleForeshortens(t *testing.T) {
	frame := testFrame()
	cfg := DefaultConfig()
	cfg.ViewAngleDeg = 30
	cfg.NoiseStdDev = 0
	cfg.Ambient = AmbientDark
	got, err := MustNew(cfg).Capture(frame)
	if err != nil {
		t.Fatal(err)
	}
	// Column-wise bright extent must differ between left and right halves.
	height := func(x int) int {
		n := 0
		for y := 0; y < got.H; y++ {
			p := got.At(x, y)
			if int(p.R)+int(p.G)+int(p.B) > 150 {
				n++
			}
		}
		return n
	}
	left := height(got.W / 4)
	right := height(3 * got.W / 4)
	if left == right {
		t.Fatal("no foreshortening at 30°")
	}
}

func TestBrightnessScalesIntensity(t *testing.T) {
	frame := testFrame()
	mean := func(brightness float64) float64 {
		cfg := DefaultConfig()
		cfg.ScreenBrightness = brightness
		cfg.NoiseStdDev = 0
		cfg.Ambient = AmbientDark
		got, err := MustNew(cfg).Capture(frame)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, p := range got.Pix {
			sum += float64(p.R) + float64(p.G) + float64(p.B)
		}
		return sum / float64(len(got.Pix))
	}
	if full, half := mean(1.0), mean(0.5); half >= full*0.7 {
		t.Fatalf("half brightness mean %v not well below full %v", half, full)
	}
}

func TestOutdoorRaisesFloorAndCutsContrast(t *testing.T) {
	frame := raster.New(64, 64) // all black screen
	cfg := DefaultConfig()
	cfg.NoiseStdDev = 0
	cfg.Ambient = AmbientOutdoor
	got, err := MustNew(cfg).Capture(frame)
	if err != nil {
		t.Fatal(err)
	}
	// Outdoor veiling light lifts black pixels well above zero.
	p := got.At(32, 32)
	if p.R < 30 {
		t.Errorf("outdoor black level = %d, want raised floor", p.R)
	}
	cfg.Ambient = AmbientDark
	got2, err := MustNew(cfg).Capture(frame)
	if err != nil {
		t.Fatal(err)
	}
	if q := got2.At(32, 32); q.R != 0 {
		t.Errorf("dark-room black level = %d, want 0", q.R)
	}
}

func TestCaptureKeepsResolution(t *testing.T) {
	frame := testFrame()
	got, err := MustNew(DefaultConfig()).Capture(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != frame.W || got.H != frame.H {
		t.Fatalf("capture %dx%d, want %dx%d", got.W, got.H, frame.W, frame.H)
	}
}

func TestAmbientString(t *testing.T) {
	cases := map[Ambient]string{
		AmbientIndoor:  "indoor",
		AmbientOutdoor: "outdoor",
		AmbientDark:    "dark",
		Ambient(99):    "unknown",
	}
	for a, want := range cases {
		if got := a.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", a, got, want)
		}
	}
}

func TestForwardMapMatchesWarp(t *testing.T) {
	// The exact forward map must agree with where the capture warp
	// actually puts screen content: paint a single bright block, capture
	// it without blur or noise, and check the mapped center lands inside
	// the bright region.
	cfg := DefaultConfig()
	cfg.ViewAngleDeg = 18
	cfg.JitterPx = 0
	cfg.NoiseStdDev = 0
	cfg.BlurSigma = 0
	ch := MustNew(cfg)

	frame := raster.New(320, 180)
	frame.FillRect(200, 90, 12, 12, colorspace.RGBWhite)
	warped, err := ch.Capture(frame)
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := cfg.ForwardMap(320, 180)
	if err != nil {
		t.Fatal(err)
	}
	p := fwd(geometry.Point{X: 206, Y: 96})
	got := warped.At(int(p.X+0.5), int(p.Y+0.5))
	if got.R < 200 {
		t.Fatalf("forward-mapped center (%.1f, %.1f) is not on the block: %v", p.X, p.Y, got)
	}
}

func TestForwardMapInvertsLens(t *testing.T) {
	// With strong lens coefficients the fixed-point inversion must still
	// satisfy lens.Apply(fwd(p)) == hom.Apply(p) to sub-pixel accuracy.
	cfg := DefaultConfig()
	cfg.LensK1, cfg.LensK2 = 0.08, 0.01
	fwd, err := cfg.ForwardMap(320, 180)
	if err != nil {
		t.Fatal(err)
	}
	hom, err := geometry.PerspectiveView(320, 180, cfg.ViewAngleDeg, 0.92*8.0/cfg.DistanceCM, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	lens := geometry.RadialDistortion{
		Center: geometry.Point{X: 160, Y: 90},
		Norm:   math.Hypot(320, 180) / 2,
		K1:     cfg.LensK1, K2: cfg.LensK2,
	}
	for _, p := range []geometry.Point{{X: 20, Y: 20}, {X: 160, Y: 90}, {X: 300, Y: 170}} {
		q := fwd(p)
		back := lens.Apply(q)
		want := hom.Apply(p)
		if back.Dist(want) > 0.01 {
			t.Fatalf("lens inversion residual %.4f at %v", back.Dist(want), p)
		}
	}
}

func TestChromaNoiseSurvivesMeanFilter(t *testing.T) {
	// The design requirement behind the chroma model: unlike per-pixel
	// noise, the correlated field must remain visible after 3x3 mean
	// filtering (that is how it produces block errors).
	base := raster.New(128, 128)
	base.Fill(colorspace.RGB{R: 128, G: 128, B: 128})

	residual := func(cfg Config) float64 {
		out := MustNew(cfg).Photometric(base)
		var sum float64
		n := 0
		for y := 8; y < 120; y += 4 {
			for x := 8; x < 120; x += 4 {
				p := out.MeanFilterAt(x, y)
				d := float64(p.R) - 128*cfg.ScreenBrightness*0.95 - 12
				sum += d * d
				n++
			}
		}
		return sum / float64(n)
	}

	perPixel := DefaultConfig()
	perPixel.BlurSigma = 0
	perPixel.NoiseStdDev = 20
	chroma := DefaultConfig()
	chroma.BlurSigma = 0
	chroma.NoiseStdDev = 0
	chroma.ChromaNoiseStdDev = 20
	chroma.ChromaNoiseScalePx = 8

	// The luminance gain (~0.57 at mid-gray) eats part of the chroma
	// amplitude, so the margin is moderate rather than dramatic — but it
	// must be clearly above the per-pixel residual, which the mean filter
	// divides by 9.
	if rp, rc := residual(perPixel), residual(chroma); rc < rp*1.3 {
		t.Fatalf("chroma residual %.1f not above per-pixel residual %.1f after mean filter", rc, rp)
	}
}

func TestChromaNoiseSparesBlacks(t *testing.T) {
	// The luminance gain must keep structural black regions nearly clean.
	base := raster.New(64, 64) // all black
	cfg := DefaultConfig()
	cfg.BlurSigma = 0
	cfg.NoiseStdDev = 0
	cfg.Ambient = AmbientDark
	cfg.ChromaNoiseStdDev = 60
	cfg.ChromaNoiseScalePx = 8
	out := MustNew(cfg).Photometric(base)
	for _, p := range []struct{ x, y int }{{10, 10}, {32, 32}, {55, 50}} {
		v := out.At(p.x, p.y)
		if v.R > 40 || v.G > 40 || v.B > 40 {
			t.Fatalf("black pixel lifted to %v by chroma noise", v)
		}
	}
}
