package raster

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"runtime/debug"
	"testing"
	"testing/quick"

	"rainbar/internal/colorspace"
)

func TestNewPanicsOnInvalidSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, 5) did not panic")
		}
	}()
	New(0, 5)
}

func TestAtSetAndBounds(t *testing.T) {
	img := New(4, 3)
	red := colorspace.RGBRed
	img.Set(2, 1, red)
	if got := img.At(2, 1); got != red {
		t.Errorf("At(2,1) = %v, want red", got)
	}
	// Out-of-bounds reads are black, writes are no-ops.
	if got := img.At(-1, 0); got != colorspace.RGBBlack {
		t.Errorf("At(-1,0) = %v, want black", got)
	}
	if got := img.At(4, 0); got != colorspace.RGBBlack {
		t.Errorf("At(4,0) = %v, want black", got)
	}
	img.Set(100, 100, red) // must not panic
}

func TestCloneIsDeep(t *testing.T) {
	img := New(2, 2)
	img.Set(0, 0, colorspace.RGBGreen)
	cl := img.Clone()
	cl.Set(0, 0, colorspace.RGBBlue)
	if img.At(0, 0) != colorspace.RGBGreen {
		t.Fatal("Clone shares pixel storage with original")
	}
}

func TestFillRectClipping(t *testing.T) {
	img := New(4, 4)
	img.FillRect(-2, -2, 4, 4, colorspace.RGBWhite)
	if img.At(0, 0) != colorspace.RGBWhite || img.At(1, 1) != colorspace.RGBWhite {
		t.Error("clipped fill missed in-bounds corner")
	}
	if img.At(2, 2) != colorspace.RGBBlack {
		t.Error("fill exceeded its rectangle")
	}
}

func TestBilinearAtIntegerCoordinates(t *testing.T) {
	img := New(3, 3)
	img.Set(1, 1, colorspace.RGB{R: 100, G: 150, B: 200})
	if got := img.Bilinear(1, 1); got != (colorspace.RGB{R: 100, G: 150, B: 200}) {
		t.Errorf("Bilinear(1,1) = %v", got)
	}
}

func TestBilinearInterpolatesMidpoint(t *testing.T) {
	img := New(2, 1)
	img.Set(0, 0, colorspace.RGB{R: 0, G: 0, B: 0})
	img.Set(1, 0, colorspace.RGB{R: 200, G: 100, B: 50})
	got := img.Bilinear(0.5, 0)
	want := colorspace.RGB{R: 100, G: 50, B: 25}
	if got != want {
		t.Errorf("Bilinear(0.5,0) = %v, want %v", got, want)
	}
}

func TestBilinearNegativeCoordinates(t *testing.T) {
	// Regression guard for the int-truncation-toward-zero bug: floor(-0.5)
	// must be -1, so a sample at -0.5 blends halfway to black.
	img := New(2, 2)
	img.Fill(colorspace.RGB{R: 200, G: 200, B: 200})
	got := img.Bilinear(-0.5, 0)
	if got.R != 100 {
		t.Errorf("Bilinear(-0.5,0).R = %d, want 100", got.R)
	}
}

func TestMeanFilterUniform(t *testing.T) {
	img := New(5, 5)
	img.Fill(colorspace.RGB{R: 60, G: 70, B: 80})
	if got := img.MeanFilterAt(2, 2); got != (colorspace.RGB{R: 60, G: 70, B: 80}) {
		t.Errorf("mean of uniform image = %v", got)
	}
	// Corner: only 4 neighbors in bounds, still the same mean.
	if got := img.MeanFilterAt(0, 0); got != (colorspace.RGB{R: 60, G: 70, B: 80}) {
		t.Errorf("corner mean = %v", got)
	}
}

func TestMeanFilterSuppressesSaltNoise(t *testing.T) {
	img := New(3, 3)
	img.Fill(colorspace.RGB{R: 0, G: 0, B: 0})
	img.Set(1, 1, colorspace.RGB{R: 255, G: 255, B: 255}) // single hot pixel
	got := img.MeanFilterAt(1, 1)
	if got.R != 255/9+1 && got.R != 255/9 { // ~28, rounding either way
		t.Errorf("mean filter at hot pixel = %v, want ~28", got)
	}
}

func TestSharpnessOrdersBlurLevels(t *testing.T) {
	// A checkerboard is the sharpest thing we can draw; blurring must
	// strictly reduce the sharpness metric.
	img := New(32, 32)
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			if (x/4+y/4)%2 == 0 {
				img.Set(x, y, colorspace.RGBWhite)
			}
		}
	}
	// Each 3x3 mean-filter pass blurs further.
	meanBlur := func(img *Image) *Image {
		out := New(img.W, img.H)
		for y := 0; y < img.H; y++ {
			for x := 0; x < img.W; x++ {
				out.Set(x, y, img.MeanFilterAt(x, y))
			}
		}
		return out
	}
	s0 := img.Sharpness()
	s1 := meanBlur(img).Sharpness()
	s2 := meanBlur(meanBlur(meanBlur(img))).Sharpness()
	if !(s0 > s1 && s1 > s2) {
		t.Fatalf("sharpness not monotone in blur: %v, %v, %v", s0, s1, s2)
	}
}

func TestSharpnessDegenerate(t *testing.T) {
	if got := New(1, 1).Sharpness(); got != 0 {
		t.Errorf("1x1 sharpness = %v, want 0", got)
	}
}

// sharpnessRef is the pre-table Sharpness implementation, kept verbatim as
// the executable specification: the pooled, luma-table path must reproduce
// its result bit-for-bit (sharpness feeds vote weights, so a one-ulp drift
// would change experiment tables).
func sharpnessRef(img *Image) float64 {
	if img.W < 2 || img.H < 2 {
		return 0
	}
	w := img.W
	lumaF := func(p colorspace.RGB) float64 {
		return 0.299*float64(p.R) + 0.587*float64(p.G) + 0.114*float64(p.B)
	}
	rowSums := make([]float64, img.H-1)
	for y := 0; y < img.H-1; y++ {
		row := img.Pix[y*w : (y+1)*w]
		below := img.Pix[(y+1)*w : (y+2)*w]
		l := lumaF(row[0])
		var sum float64
		for x := 0; x < w-1; x++ {
			lr := lumaF(row[x+1])
			gx := lr - l
			gy := lumaF(below[x]) - l
			sum += gx*gx + gy*gy
			l = lr
		}
		rowSums[y] = sum
	}
	var sum float64
	for _, s := range rowSums {
		sum += s
	}
	return sum / float64((img.W-1)*(img.H-1))
}

// sharpnessImage fills a w x h image with one of the content kinds the
// Sharpness identity is checked on: uniform-random pixels, code colours
// plus noise, one random colour everywhere, all 0 and all 255.
func sharpnessImage(rng *rand.Rand, w, h, kind int) *Image {
	img := New(w, h)
	codes := []colorspace.RGB{
		colorspace.RGBWhite, colorspace.RGBRed,
		colorspace.RGBGreen, colorspace.RGBBlue, colorspace.RGBBlack,
	}
	noisy := func(v uint8) uint8 {
		return uint8(min(max(int(v)+rng.Intn(61)-30, 0), 255))
	}
	c := colorspace.RGB{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256))}
	for i := range img.Pix {
		switch kind {
		case 0:
			img.Pix[i] = colorspace.RGB{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256))}
		case 1:
			p := codes[rng.Intn(len(codes))]
			img.Pix[i] = colorspace.RGB{R: noisy(p.R), G: noisy(p.G), B: noisy(p.B)}
		case 2:
			img.Pix[i] = c
		case 3:
			img.Pix[i] = colorspace.RGBBlack
		default:
			img.Pix[i] = colorspace.RGB{R: 255, G: 255, B: 255}
		}
	}
	return img
}

// TestSharpnessMatchesReference: Sharpness reproduces sharpnessRef bit for
// bit on every size from 2x2 to 70x70 (so every (H-1) mod 4 tail and W = 2
// occur) and at 640x360, for every content kind. The calls run large,
// then small in shuffled order, then large again, so a stale row left in
// the pooled scratch by a larger image would show.
func TestSharpnessMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	type size struct{ w, h int }
	sizes := []size{{640, 360}}
	for w := 2; w <= 70; w++ {
		for h := 2; h <= 70; h++ {
			sizes = append(sizes, size{w, h})
		}
	}
	rng.Shuffle(len(sizes)-1, func(i, j int) { sizes[i+1], sizes[j+1] = sizes[j+1], sizes[i+1] })
	sizes = append(sizes, size{640, 360})
	const kinds = 5
	for i, sz := range sizes {
		kind := i % kinds
		img := sharpnessImage(rng, sz.w, sz.h, kind)
		if got, want := img.Sharpness(), sharpnessRef(img); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%dx%d kind %d: Sharpness() = %v, reference = %v", sz.w, sz.h, kind, got, want)
		}
	}
	for kind := 0; kind < kinds; kind++ {
		img := sharpnessImage(rng, 640, 360, kind)
		if got, want := img.Sharpness(), sharpnessRef(img); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("640x360 kind %d: Sharpness() = %v, reference = %v", kind, got, want)
		}
	}
}

// FuzzSharpness checks Sharpness against sharpnessRef on a w x h image
// (each side 2..70) whose pixels repeat the fuzzed bytes (all black when
// there are none). The checked-in corpus (testdata/fuzz/FuzzSharpness) has
// one entry per (H-1) mod 4 tail length: 5x69, 2x2, 70x3 and 9x40.
func FuzzSharpness(f *testing.F) {
	f.Fuzz(func(t *testing.T, wb, hb uint8, pix []byte) {
		w, h := 2+int(wb)%69, 2+int(hb)%69
		img := New(w, h)
		if len(pix) > 0 {
			for i := range img.Pix {
				k := 3 * i
				img.Pix[i] = colorspace.RGB{R: pix[k%len(pix)], G: pix[(k+1)%len(pix)], B: pix[(k+2)%len(pix)]}
			}
		}
		if got, want := img.Sharpness(), sharpnessRef(img); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%dx%d: Sharpness() = %v, reference = %v", w, h, got, want)
		}
	})
}

func TestSharpnessAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its cache at random under -race; the allocation contract is measured without it")
	}
	img := benchImage()
	img.Sharpness() // warm the pools
	// GC off: a collection mid-measurement would drain the sync.Pools and
	// the refill would count as an allocation of Sharpness's own.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if n := testing.AllocsPerRun(50, func() { img.Sharpness() }); n > 0 {
		t.Fatalf("Sharpness allocates %v per call after warmup", n)
	}
}

func TestPNGRoundTrip(t *testing.T) {
	img := New(7, 5)
	img.Set(3, 2, colorspace.RGBGreen)
	img.Set(6, 4, colorspace.RGB{R: 1, G: 2, B: 3})
	path := filepath.Join(t.TempDir(), "frame.png")
	if err := img.WritePNGFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPNGFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.W != img.W || back.H != img.H {
		t.Fatalf("dimensions %dx%d, want %dx%d", back.W, back.H, img.W, img.H)
	}
	if !bytes.Equal(flatten(img), flatten(back)) {
		t.Fatal("PNG round trip altered pixels")
	}
}

func TestReadPNGMissingFile(t *testing.T) {
	if _, err := ReadPNGFile(filepath.Join(t.TempDir(), "nope.png")); err == nil {
		t.Fatal("reading missing file succeeded")
	}
}

func TestBilinearWithinPixelRangeProperty(t *testing.T) {
	img := New(8, 8)
	for i := range img.Pix {
		img.Pix[i] = colorspace.RGB{R: uint8(i * 31), G: uint8(i * 17), B: uint8(i * 7)}
	}
	prop := func(xq, yq uint16) bool {
		x := float64(xq%800) / 100 // [0, 8)
		y := float64(yq%800) / 100
		p := img.Bilinear(x, y)
		// Interpolation never exceeds the channel extremes of its corners.
		x0, y0 := int(math.Floor(x)), int(math.Floor(y))
		lo, hi := 255, 0
		for dy := 0; dy <= 1; dy++ {
			for dx := 0; dx <= 1; dx++ {
				v := int(img.At(x0+dx, y0+dy).R)
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
		}
		return int(p.R) >= lo-1 && int(p.R) <= hi+1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// bilinearRef is Bilinear without the equal-corner shortcut: the full
// interpolation of every sample.
func bilinearRef(img *Image, x, y float64) colorspace.RGB {
	x0 := int(math.Floor(x))
	y0 := int(math.Floor(y))
	fx := x - float64(x0)
	fy := y - float64(y0)
	c00 := img.At(x0, y0)
	c10 := img.At(x0+1, y0)
	c01 := img.At(x0, y0+1)
	c11 := img.At(x0+1, y0+1)
	lerp2 := func(a, b, c, d uint8) uint8 {
		top := float64(a)*(1-fx) + float64(b)*fx
		bot := float64(c)*(1-fx) + float64(d)*fx
		v := top*(1-fy) + bot*fy
		if v < 0 {
			return 0
		}
		if v > 255 {
			return 255
		}
		return uint8(v + 0.5)
	}
	return colorspace.RGB{
		R: lerp2(c00.R, c10.R, c01.R, c11.R),
		G: lerp2(c00.G, c10.G, c01.G, c11.G),
		B: lerp2(c00.B, c10.B, c01.B, c11.B),
	}
}

// TestBilinearMatchesReference: the equal-corner shortcut returns exactly
// what the full interpolation computes, for every channel value and for
// fractional positions anywhere in and around the image.
func TestBilinearMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	img := New(16, 16)
	for v := 0; v < 256; v++ {
		// Mostly one colour, so most samples take the shortcut; a few
		// distinct pixels keep the full path in play.
		img.Fill(colorspace.RGB{R: uint8(v), G: uint8(255 - v), B: uint8(v * 7)})
		for i := 0; i < 3; i++ {
			img.Pix[rng.Intn(len(img.Pix))] = colorspace.RGB{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256))}
		}
		for i := 0; i < 400; i++ {
			x, y := rng.Float64()*18-1, rng.Float64()*18-1
			if got, want := img.Bilinear(x, y), bilinearRef(img, x, y); got != want {
				t.Fatalf("Bilinear(%v, %v) = %v, full interpolation %v", x, y, got, want)
			}
		}
	}
}

func flatten(img *Image) []byte {
	out := make([]byte, 0, len(img.Pix)*3)
	for _, p := range img.Pix {
		out = append(out, p.R, p.G, p.B)
	}
	return out
}
