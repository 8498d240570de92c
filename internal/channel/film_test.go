package channel

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"rainbar/internal/colorspace"
	"rainbar/internal/raster"
)

// filmCase is one generated capture: a condition, the frames, and which
// entry point films them.
type filmCase struct {
	cfg    Config
	frames []*raster.Image
	rows   []Row         // row plan (kind "rows" and "capture")
	img    *raster.Image // source of a "photometric" case
	kind   string        // "capture", "rows" or "photometric"
	kernel []float64     // explicit taps, or nil for the condition's own
}

// genFrame draws a w x h frame of axis-aligned blocks from a small palette,
// so blur windows are often one colour, sometimes sprinkled with noise.
func genFrame(rng *rand.Rand, w, h int) *raster.Image {
	palette := []colorspace.RGB{
		colorspace.RGBWhite, colorspace.RGBRed, colorspace.RGBGreen,
		colorspace.RGBBlue, colorspace.RGBBlack,
		{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256))},
	}
	rng.Shuffle(len(palette), func(i, j int) { palette[i], palette[j] = palette[j], palette[i] })
	palette = palette[:2+rng.Intn(len(palette)-1)]
	bw, bh := 1+rng.Intn(16), 1+rng.Intn(16)
	speckle := rng.Intn(3) == 0
	img := raster.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			p := palette[(x/bw+3*(y/bh))%len(palette)]
			if speckle && rng.Intn(20) == 0 {
				p = colorspace.RGB{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256))}
			}
			img.Pix[y*w+x] = p
		}
	}
	return img
}

// genCase draws a random condition covering every branch of the pipeline:
// distances with and without a black surround, view angles up to ±60°,
// barrel and pincushion lenses, no jitter and up to 3 px, blur radii of
// 1..6 taps either side (and none), explicit kernels whose taps do not sum
// to 1, motion blur, chroma and per-pixel noise on and off, blend and
// black rows, and images narrower or shorter than the kernel.
func genCase(rng *rand.Rand) filmCase {
	cfg := DefaultConfig()
	cfg.Seed = rng.Int63()
	cfg.DistanceCM = []float64{3, 4, 6, 7, 8, 10, 12, 16, 20, 30}[rng.Intn(10)] + rng.Float64()
	if rng.Intn(2) == 0 {
		cfg.ViewAngleDeg = rng.Float64()*120 - 60
	}
	cfg.LensK1 = rng.Float64()*0.1 - 0.03
	cfg.LensK2 = rng.Float64()*0.04 - 0.02
	cfg.JitterPx = rng.Float64() * 3
	if cfg.Seed%5 == 0 {
		// Keyed off the seed rather than a draw of its own, so the draw
		// sequence, which fixes every later case and subtest name, holds.
		cfg.JitterPx = 0
	}
	cfg.ScreenBrightness = rng.Float64()
	cfg.Ambient = Ambient(1 + rng.Intn(3))
	cfg.BlurSigma = 0
	if rng.Intn(5) > 0 {
		// Effective sigma in (0.15, 2.15): kernel radius 1..6.
		d := math.Abs(cfg.DistanceCM-ReferenceDistanceCM) / ReferenceDistanceCM
		cfg.BlurSigma = (0.15 + 2*rng.Float64()) / (1 + 0.7*d)
	}
	cfg.MotionBlurPx = rng.Intn(10)
	cfg.NoiseStdDev = 0
	if rng.Intn(3) > 0 {
		cfg.NoiseStdDev = 0.5 + 20*rng.Float64()
	}
	cfg.ChromaNoiseStdDev = 0
	if rng.Intn(2) == 0 {
		cfg.ChromaNoiseStdDev = 1 + 30*rng.Float64()
		cfg.ChromaNoiseScalePx = rng.Intn(17)
	}

	w, h := 1+rng.Intn(96), 1+rng.Intn(72)
	if rng.Intn(6) == 0 {
		w, h = 1+rng.Intn(12), 1+rng.Intn(12)
	}
	c := filmCase{cfg: cfg}
	if rng.Intn(4) == 0 {
		taps := 3 + 2*rng.Intn(6)
		c.kernel = make([]float64, taps)
		for k := range c.kernel {
			c.kernel[k] = 0.05 + rng.Float64()
		}
	}
	switch rng.Intn(3) {
	case 0:
		c.kind = "photometric"
		c.img = genFrame(rng, w, h)
	case 1:
		c.kind = "capture"
		c.frames = []*raster.Image{genFrame(rng, w, h)}
		c.rows = make([]Row, h)
		for y := range c.rows {
			c.rows[y].B = c.frames[0]
		}
	default:
		c.kind = "rows"
		c.frames = make([]*raster.Image, 2+rng.Intn(2))
		for i := range c.frames {
			c.frames[i] = genFrame(rng, w, h)
		}
		c.rows = genPlan(rng, c.frames, h)
	}
	return c
}

// genPlan cuts h rows into runs, each black, one frame, or a blend of two
// consecutive frames at a fixed or ramping weight, as an LCD transition
// seen by a rolling shutter produces.
func genPlan(rng *rand.Rand, frames []*raster.Image, h int) []Row {
	rows := make([]Row, h)
	for y := 0; y < h; {
		n := min(1+rng.Intn(max(h/2, 1)), h-y)
		i := rng.Intn(len(frames) - 1)
		a, b := frames[i], frames[i+1]
		mode := rng.Intn(4)
		for k := 0; k < n; k++ {
			switch mode {
			case 0: // black
			case 1:
				rows[y+k] = Row{A: a, B: a, Alpha: 1}
			case 2:
				rows[y+k] = Row{A: a, B: b, Alpha: float64(k) / float64(n)}
			default:
				rows[y+k] = Row{A: a, B: b, Alpha: rng.Float64()}
			}
		}
		y += n
	}
	if rows[0].B == nil {
		rows[0].B = frames[0] // the camera films only plans that show a frame
	}
	return rows
}

// run films the case through the kernel on a fresh channel.
func (c filmCase) run() (*raster.Image, *Channel, error) {
	ch := MustNew(c.cfg)
	out, err := c.runOn(ch)
	return out, ch, err
}

// runOn films the case through the kernel on ch, whose condition it takes
// instead of c.cfg.
func (c filmCase) runOn(ch *Channel) (*raster.Image, error) {
	switch {
	case c.kernel != nil && c.kind == "photometric":
		return ch.scan(nil, c.img, c.img.W, c.img.H, c.kernel)
	case c.kernel != nil:
		return ch.scan(c.rows, nil, c.frames[0].W, len(c.rows), c.kernel)
	case c.kind == "photometric":
		return ch.Photometric(c.img), nil
	case c.kind == "capture":
		return ch.Capture(c.frames[0])
	default:
		return ch.CaptureRows(c.rows)
	}
}

// reference films the case through the whole-frame reference pipeline.
func (c filmCase) reference() (*raster.Image, *rand.Rand, error) {
	rng := rand.New(rand.NewSource(c.cfg.Seed))
	out, err := c.referenceOn(rng)
	return out, rng, err
}

// referenceOn films the case through the reference pipeline, drawing from
// rng.
func (c filmCase) referenceOn(rng *rand.Rand) (*raster.Image, error) {
	kernel := c.kernel
	if kernel == nil {
		kernel = MustNew(c.cfg).blurKernel()
	}
	if c.kind == "photometric" {
		return refPhotometric(c.cfg, rng, c.img, kernel), nil
	}
	return refScan(c.cfg, rng, c.rows, kernel)
}

// checkIdentical films c both ways and fails unless the captures, the
// error outcome and the PRNG position afterwards all agree.
func checkIdentical(t *testing.T, c filmCase) {
	t.Helper()
	got, ch, err := c.run()
	want, rng, werr := c.reference()
	checkSame(t, got, err, ch.rng, want, werr, rng)
}

// checkSame fails unless a kernel capture and a reference capture agree
// in their error outcome, their pixels and the next draw of their PRNGs.
func checkSame(t *testing.T, got *raster.Image, err error, grng *rand.Rand, want *raster.Image, werr error, rng *rand.Rand) {
	t.Helper()
	if (err == nil) != (werr == nil) {
		t.Fatalf("kernel error %v, reference error %v", err, werr)
	}
	if err == nil {
		if got.W != want.W || got.H != want.H {
			t.Fatalf("kernel %dx%d, reference %dx%d", got.W, got.H, want.W, want.H)
		}
		if !bytes.Equal(pixBytes(got), pixBytes(want)) {
			for i := range got.Pix {
				if got.Pix[i] != want.Pix[i] {
					t.Fatalf("pixel (%d,%d) of %dx%d: kernel %v, reference %v",
						i%got.W, i/got.W, got.W, got.H, got.Pix[i], want.Pix[i])
				}
			}
		}
	}
	if a, b := grng.Int63(), rng.Int63(); a != b {
		t.Fatalf("PRNG out of step after the capture: next draw %d, reference %d", a, b)
	}
}

func pixBytes(img *raster.Image) []byte {
	out := make([]byte, 0, 3*len(img.Pix))
	for _, p := range img.Pix {
		out = append(out, p.R, p.G, p.B)
	}
	return out
}

// TestFilmMatchesReference is the kernel's identity property: over
// generated conditions, frames and row plans, every capture pixel and the
// PRNG position after it equal the whole-frame reference pipeline's. CI
// runs it at -cpu 1,2 and under -race.
func TestFilmMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	n := 400
	if testing.Short() {
		n = 100
	}
	var seen struct {
		close, far, sigma0, sumNot1, motion, chroma, noiseOff bool
		blend, black, narrow, short                           bool
		// A row whose every pixel is certified dark surround, a row
		// partly certified, and a plan whose geometry certifies nothing.
		fullRow, partRow, noSurround bool
		taps                         map[int]bool
	}
	seen.taps = map[int]bool{}
	for i := 0; i < n; i++ {
		c := genCase(rng)
		kernel := c.kernel
		if kernel == nil {
			kernel = MustNew(c.cfg).blurKernel()
		}
		seen.close = seen.close || (c.kind != "photometric" && c.cfg.DistanceCM < 8)
		seen.far = seen.far || (c.kind != "photometric" && c.cfg.DistanceCM > 12)
		seen.sigma0 = seen.sigma0 || kernel == nil
		seen.taps[len(kernel)] = true
		var ksum float64
		for _, kv := range kernel {
			ksum += kv
		}
		seen.sumNot1 = seen.sumNot1 || (kernel != nil && ksum != 1)
		seen.motion = seen.motion || c.cfg.MotionBlurPx > 1
		seen.chroma = seen.chroma || c.cfg.ChromaNoiseStdDev > 0
		seen.noiseOff = seen.noiseOff || c.cfg.NoiseStdDev == 0
		for _, r := range c.rows {
			seen.blend = seen.blend || r.blends()
			seen.black = seen.black || r.B == nil
		}
		w, h := 0, 0
		if c.img != nil {
			w, h = c.img.W, c.img.H
		} else {
			w, h = c.frames[0].W, c.frames[0].H
		}
		seen.narrow = seen.narrow || (kernel != nil && w < len(kernel))
		seen.short = seen.short || (kernel != nil && h < len(kernel))
		if c.kind != "photometric" {
			lo, hi := MustNew(c.cfg).Surround(w, h)
			certified := 0
			for y := range lo {
				n := int(lo[y]) + w - int(hi[y])
				certified += n
				seen.fullRow = seen.fullRow || n == w
				seen.partRow = seen.partRow || (n > 0 && n < w)
			}
			seen.noSurround = seen.noSurround || certified == 0
		}
		t.Run(fmt.Sprintf("%d_%s_%dx%d", i, c.kind, w, h), func(t *testing.T) {
			checkIdentical(t, c)
		})
	}
	for taps := 3; taps <= 13; taps += 2 {
		if !seen.taps[taps] {
			t.Errorf("no case with a %d-tap kernel", taps)
		}
	}
	if !seen.taps[0] || !seen.close || !seen.far || !seen.sigma0 || !seen.sumNot1 || !seen.motion ||
		!seen.chroma || !seen.noiseOff || !seen.blend || !seen.black || !seen.narrow || !seen.short ||
		!seen.fullRow || !seen.partRow || !seen.noSurround {
		t.Errorf("generator missed a branch: %+v", seen)
	}
}

// TestFilmReusesScratchAcrossCaptures: one Channel films a generated
// sequence of row plans and Photometric images whose sizes (and, through
// explicit taps, blur kernels) change from capture to capture, so the
// pooled scratch is reused, regrown and rebuilt. Every capture, and the
// PRNG position after it, equals the reference pipeline driven through
// the same sequence from one PRNG.
func TestFilmReusesScratchAcrossCaptures(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for seq := 0; seq < 24; seq++ {
		cfg := genCase(rng).cfg
		ch := MustNew(cfg)
		ref := rand.New(rand.NewSource(cfg.Seed))
		for i := 0; i < 10; i++ {
			c := genCase(rng)
			c.cfg = cfg
			got, err := c.runOn(ch)
			want, werr := c.referenceOn(ref)
			t.Run(fmt.Sprintf("%d_%d_%s", seq, i, c.kind), func(t *testing.T) {
				checkSame(t, got, err, ch.rng, want, werr, ref)
			})
		}
	}
}

// TestFilmWarmCaptureAllocations: with the scratch pool warm, a capture
// allocates only its output image (header and pixels) and its sensor
// goroutine's closure, three times in all; the hand-off state between
// the goroutines lives in the pooled scratch.
func TestFilmWarmCaptureAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its cache at random under -race; the allocation bound is measured without it")
	}
	cfg := DefaultConfig()
	cfg.ChromaNoiseStdDev = 4
	ch := MustNew(cfg)
	frame := testFrame()
	rows := make([]Row, frame.H)
	for y := range rows {
		rows[y].B = frame
	}
	if _, err := ch.CaptureRows(rows); err != nil {
		t.Fatal(err)
	}
	// GC off: a collection would drain the pool, and the refill would
	// count against the capture.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	n := testing.AllocsPerRun(10, func() {
		if _, err := ch.CaptureRows(rows); err != nil {
			t.Fatal(err)
		}
	})
	if n > 5 {
		t.Fatalf("a warm capture allocates %v times, want at most 5", n)
	}
}

// TestFilmMatchesReferenceFullFrame checks the identity at the experiment
// scale under the default condition, across the distances that decide how
// much of each capture is one colour: the screen fills the frame at 6 cm,
// and a dark surround grows from 8 cm on.
func TestFilmMatchesReferenceFullFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	frames := []*raster.Image{genFrame(rng, 640, 360), genFrame(rng, 640, 360)}
	for _, d := range []float64{6, 12, 20} {
		cfg := DefaultConfig()
		cfg.DistanceCM = d
		cfg.ChromaNoiseStdDev = 4
		rows := genPlan(rng, frames, 360)
		t.Run(fmt.Sprintf("%gcm", d), func(t *testing.T) {
			checkIdentical(t, filmCase{cfg: cfg, frames: frames, rows: rows, kind: "rows"})
		})
	}
}

// namedFilmCase is one of namedFilmCases.
type namedFilmCase struct {
	name string
	filmCase
}

// namedFilmCases are captures chosen for the capture kernel's schedule
// rather than drawn: heights around the noise ring's size, each sensor
// and blur stage switched on or off alone, a plan that lights only a few
// rows, one with nothing certified, a capture narrower than its blur
// kernel, and a plan whose rows are often black.
func namedFilmCases() []namedFilmCase {
	rng := rand.New(rand.NewSource(24))
	var cases []namedFilmCase
	add := func(name string, cfg Config, w, h int) *filmCase {
		f := genFrame(rng, w, h)
		rows := make([]Row, h)
		for y := range rows {
			rows[y].B = f
		}
		cases = append(cases, namedFilmCase{name, filmCase{cfg: cfg, frames: []*raster.Image{f}, rows: rows, kind: "capture"}})
		return &cases[len(cases)-1].filmCase
	}
	for _, h := range []int{1, 2, noiseRing - 1, noiseRing, noiseRing + 1, 3*noiseRing + wakeBatch - 1} {
		add(fmt.Sprintf("height %d", h), DefaultConfig(), 64, h)
	}
	cfg := DefaultConfig()
	cfg.NoiseStdDev = 0
	add("no pixel noise", cfg, 96, 54)
	cfg = DefaultConfig()
	cfg.ChromaNoiseStdDev = 6
	add("chroma noise", cfg, 96, 54)
	cfg = DefaultConfig()
	cfg.BlurSigma = 0
	add("no blur", cfg, 96, 54)
	cfg = DefaultConfig()
	cfg.MotionBlurPx = 5
	add("motion blur", cfg, 96, 54)
	cfg = DefaultConfig()
	cfg.DistanceCM, cfg.ViewAngleDeg = 30, 60
	add("few lit rows", cfg, 96, 54)
	cfg = DefaultConfig()
	cfg.DistanceCM = 6
	add("nothing certified", cfg, 96, 54)
	cfg = DefaultConfig()
	cfg.BlurSigma = 2 // 13 taps
	add("narrower than the kernel", cfg, 11, 8)
	c := add("black rows", DefaultConfig(), 96, 54)
	c.kind = "rows"
	for y := range c.rows {
		if y%20 < 7 {
			c.rows[y].B = nil
		}
	}
	return cases
}

// TestFilmMatchesReferenceNamedCases holds the kernel to the whole-frame
// reference on namedFilmCases, and checks that each case films what its
// name says.
func TestFilmMatchesReferenceNamedCases(t *testing.T) {
	for _, c := range namedFilmCases() {
		t.Run(c.name, func(t *testing.T) {
			w, h := c.frames[0].W, c.frames[0].H
			lo, hi := MustNew(c.cfg).Surround(w, h)
			lit, certified := 0, 0
			for y := range lo {
				if lo[y] < hi[y] {
					lit++
				}
				certified += int(lo[y]) + w - int(hi[y])
			}
			taps := len(MustNew(c.cfg).blurKernel())
			switch {
			case c.name == "few lit rows" && lit > h/3:
				t.Fatalf("%d of %d rows reach the screen", lit, h)
			case c.name == "nothing certified" && certified > 0:
				t.Fatalf("%d pixels certified", certified)
			case c.name == "narrower than the kernel" && w >= taps:
				t.Fatalf("%d px wide, %d taps", w, taps)
			}
			checkIdentical(t, c.filmCase)
		})
	}
}

// TestCaptureEndsSensorGoroutine: captures leave no sensor goroutine
// behind. After 100 captures through namedFilmCases, every tenth cut
// short by a panic in its optical stage after the sensor goroutine has
// started, the goroutine count is back where it started.
func TestCaptureEndsSensorGoroutine(t *testing.T) {
	cases := namedFilmCases()
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		c := cases[i%len(cases)]
		if i%10 != 9 {
			if _, _, err := c.run(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("a plan shorter than the capture filmed")
				}
			}()
			ch := MustNew(c.cfg)
			f := c.frames[0]
			ch.scan(c.rows[:f.H/2], nil, f.W, f.H, ch.blurKernel()) // the optical stage runs off its end
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after 100 captures, %d before", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
}

func TestCaptureRowsRejectsMismatchedFrames(t *testing.T) {
	a, b := raster.New(64, 64), raster.New(32, 32)
	rows := make([]Row, 64)
	for y := range rows {
		rows[y] = Row{A: a, B: b, Alpha: 0.5}
	}
	if _, err := MustNew(DefaultConfig()).CaptureRows(rows); err == nil {
		t.Fatal("frames of different sizes captured")
	}
	if _, err := MustNew(DefaultConfig()).CaptureRows(rows[:10]); err == nil {
		t.Fatal("row plan shorter than its frames captured")
	}
}

// blurOnly is a condition whose capture is exactly the optical blur of the
// input: dark room, full brightness, no noise, at the reference distance
// (so the effective blur sigma is BlurSigma).
func blurOnly(sigma float64, motion int) *Channel {
	cfg := DefaultConfig()
	cfg.BlurSigma = sigma
	cfg.MotionBlurPx = motion
	cfg.NoiseStdDev = 0
	cfg.Ambient = AmbientDark
	return MustNew(cfg)
}

func TestGaussianBlurPreservesUniform(t *testing.T) {
	img := raster.New(8, 8)
	img.Fill(colorspace.RGB{R: 90, G: 90, B: 90})
	out := blurOnly(1.5, 0).Photometric(img)
	for i, p := range out.Pix {
		if p.R < 89 || p.R > 91 {
			t.Fatalf("pixel %d = %v after blur of uniform image", i, p)
		}
	}
}

func TestGaussianBlurZeroSigmaIsIdentity(t *testing.T) {
	img := raster.New(4, 4)
	img.Set(1, 2, colorspace.RGBRed)
	out := blurOnly(0, 0).Photometric(img)
	if !bytes.Equal(pixBytes(img), pixBytes(out)) {
		t.Fatal("sigma=0 blur changed pixels")
	}
}

func TestGaussianBlurSpreadsEdge(t *testing.T) {
	img := raster.New(20, 1)
	for x := 10; x < 20; x++ {
		img.Set(x, 0, colorspace.RGBWhite)
	}
	out := blurOnly(2, 0).Photometric(img)
	// The step at x=10 must become a monotone ramp.
	prev := -1
	for x := 5; x < 15; x++ {
		v := int(out.At(x, 0).R)
		if v < prev {
			t.Fatalf("blurred edge not monotone at x=%d: %d < %d", x, v, prev)
		}
		prev = v
	}
	if out.At(9, 0).R == 0 || out.At(10, 0).R == 255 {
		t.Error("blur did not spread the edge")
	}
}

func TestMotionBlurHorizontal(t *testing.T) {
	img := raster.New(9, 1)
	img.Set(4, 0, colorspace.RGB{R: 90, G: 90, B: 90})
	out := blurOnly(0, 3).Photometric(img)
	if out.At(4, 0).R != 30 {
		t.Errorf("center = %d, want 30", out.At(4, 0).R)
	}
	if out.At(3, 0).R != 30 || out.At(5, 0).R != 30 {
		t.Error("motion blur did not spread to neighbors")
	}
	if out.At(2, 0).R != 0 {
		t.Error("motion blur spread too far")
	}
}

func TestBlendRowsShareGeometry(t *testing.T) {
	// A capture whose rows show two frames draws one jitter: its lit
	// footprint must match a capture of one frame under the same seed.
	// Drawing the jitter per frame would shift the second frame's rows.
	a := raster.New(80, 45)
	a.Fill(colorspace.RGBRed)
	b := raster.New(80, 45)
	b.Fill(colorspace.RGBBlue)
	cfg := DefaultConfig()
	cfg.JitterPx = 3
	cfg.NoiseStdDev = 0
	cfg.BlurSigma = 0
	cfg.Ambient = AmbientDark
	mixed := make([]Row, 45)
	single := make([]Row, 45)
	for y := range mixed {
		mixed[y] = Row{A: a, B: b, Alpha: float64(y%4) / 3}
		single[y] = Row{B: a}
	}
	got, err := MustNew(cfg).CaptureRows(mixed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MustNew(cfg).CaptureRows(single)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Pix {
		if (got.Pix[i] != colorspace.RGBBlack) != (want.Pix[i] != colorspace.RGBBlack) {
			t.Fatal("mixed capture's footprint differs from the single-frame capture's")
		}
	}
}
