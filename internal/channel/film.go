package channel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"rainbar/internal/colorspace"
	"rainbar/internal/geometry"
	"rainbar/internal/obs"
	"rainbar/internal/raster"
)

// Row is one captured row's entry in a row plan: what the screen showed
// while the rolling shutter read that row out.
type Row struct {
	// B is the frame on screen; nil leaves the row black (no frame was
	// shown). Inside an LCD transition the panel still shows part of A, the
	// frame B replaced, and the row blends A and B with weight Alpha toward
	// B. A nil A, A == B or Alpha >= 1 shows B alone.
	A, B  *raster.Image
	Alpha float64
}

// blends reports whether the row mixes two frames.
func (r Row) blends() bool { return r.A != nil && r.A != r.B && r.Alpha < 1 }

// CaptureRows films one exposure whose rows may show different frames:
// rows[y] is what the screen showed while capture row y was read out, as
// in a rolling-shutter scan across a frame switch. All frames share one
// capture geometry (a single jitter draw), and blur, brightness, ambient
// light and sensor noise act on the composite, as in a real sensor. Every
// frame must be len(rows) rows tall and all must share one width. The
// fault chain is not run: the rolling-shutter camera numbers capture
// slots itself and applies its own.
func (ch *Channel) CaptureRows(rows []Row) (*raster.Image, error) {
	w, err := planWidth(rows)
	if err != nil {
		return nil, err
	}
	return ch.scan(rows, nil, w, len(rows), ch.blurKernel())
}

// planWidth checks that a row plan shows at least one frame and that all
// its frames share one size, len(rows) rows tall, and returns their width.
func planWidth(rows []Row) (int, error) {
	w := 0
	for _, r := range rows {
		for _, f := range [2]*raster.Image{r.A, r.B} {
			if f == nil {
				continue
			}
			if w == 0 {
				w = f.W
			}
			if f.W <= 0 || f.W != w || f.H != len(rows) || len(f.Pix) != f.W*f.H {
				return 0, fmt.Errorf("channel: %dx%d frame (%d pixels) in a %dx%d row plan", f.W, f.H, len(f.Pix), w, len(rows))
			}
		}
	}
	if w == 0 {
		return 0, fmt.Errorf("channel: row plan of %d rows shows no frame", len(rows))
	}
	return w, nil
}

// Photometric applies the non-geometric stage to an image and returns the
// result as a new image: blur, screen brightness, ambient veiling light and
// sensor noise. It draws no jitter, since there is no geometry.
func (ch *Channel) Photometric(img *raster.Image) *raster.Image {
	out, _ := ch.scan(nil, img, img.W, img.H, ch.blurKernel()) // no geometry, so no error
	return out
}

// blurKernel returns the condition's Gaussian defocus taps, or nil when
// blur is off. The taps are computed once per Channel.
func (ch *Channel) blurKernel() []float64 {
	if ch.kernel == nil {
		if sigma := ch.cfg.effectiveBlurSigma(); sigma > 0 {
			ch.kernel = gaussianKernel(sigma)
		}
	}
	return ch.kernel
}

// filmScratch is the capture kernel's working memory: both stages with
// their row buffers, and the blur tables last built. A capture takes one
// from filmPool and returns it, so a warm capture allocates only its
// output image and its sensor goroutine's channels and closure. The pool,
// rather than the Channel, holds the scratch between captures: a daemon
// keeps a Channel for every session it still reports on, and would keep
// a scratch for each.
type filmScratch struct {
	optics optics
	sensor sensor
	blur   *blur
}

var filmPool = sync.Pool{New: func() any { return new(filmScratch) }}

// prepare readies the optical stage for a w x h capture through kernel
// (nil: no defocus blur). It reuses every buffer that is large enough,
// rebuilds the blur tables only when the taps change, and clears vrun,
// the one buffer the stage reads before it writes.
func (f *filmScratch) prepare(w, h int, kernel []float64) *optics {
	o := &f.optics
	o.w, o.h = w, h
	o.src[0], o.src[1] = grow(o.src[0], w), grow(o.src[1], w)
	o.blur = nil
	if kernel == nil {
		return o
	}
	if f.blur == nil || !slices.Equal(f.blur.kernel, kernel) {
		f.blur = newBlur(slices.Clone(kernel))
	}
	o.blur = f.blur
	o.ring = grow(o.ring, 3*len(kernel)*w)
	o.vrun = grow(o.vrun, w)
	clear(o.vrun)
	o.base = grow(o.base, len(kernel))
	o.vrow = grow(o.vrow, w)
	return o
}

// grow returns s resized to n elements, reusing its storage when the
// capacity allows. Contents are unspecified; callers overwrite or clear.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// scan films one w x h capture through the two-stage row pipeline. Its
// source rows come from the row plan seen through the capture geometry, or,
// when img is set, from img itself with no geometry. kernel holds the
// Gaussian taps (nil: no defocus blur).
//
// The channel's PRNG is drawn in one fixed order per capture: the jitter
// (geometry plans only) and the chroma grid here on the caller's
// goroutine, then each row's sensor noise, in scan order, on the sensor
// goroutine. Only one goroutine touches the PRNG at a time and each stage
// handles its rows sequentially, so the capture does not depend on
// GOMAXPROCS or scheduling.
func (ch *Channel) scan(rows []Row, img *raster.Image, w, h int, kernel []float64) (*raster.Image, error) {
	var inv geometry.Homography
	var lens geometry.RadialDistortion
	var lo, hi []int32
	if rows != nil {
		jx := (ch.rng.Float64()*2 - 1) * ch.cfg.JitterPx
		jy := (ch.rng.Float64()*2 - 1) * ch.cfg.JitterPx
		hom, err := geometry.PerspectiveView(float64(w), float64(h), ch.cfg.ViewAngleDeg, ch.cfg.scale(), jx, jy)
		if err != nil {
			return nil, fmt.Errorf("channel warp: %w", err)
		}
		if inv, err = hom.Inverse(); err != nil {
			return nil, fmt.Errorf("channel warp: %w", err)
		}
		lens = captureLens(ch.cfg, w, h)
		lo, hi = ch.Surround(w, h)
	}
	if obs.Enabled(ch.Recorder) {
		ch.Recorder.Inc(obs.MChannelPhotometric, 1)
	}
	f := filmPool.Get().(*filmScratch)
	o := f.prepare(w, h, kernel)
	o.rows, o.img, o.inv, o.lens, o.motion = rows, img, inv, lens, ch.cfg.MotionBlurPx
	o.lo, o.hi = lo, hi
	s := &f.sensor
	ch.prepareSensor(s, w, h)
	out := raster.New(w, h)
	o.out, s.out = out, out

	// The optical stage publishes each finished row on ready, which holds
	// every row of the capture so the optical stage never waits. Closing it
	// on every exit path ends the sensor goroutine, which done then joins.
	// The scratch then lets go of the capture's frames, output and PRNG
	// and goes back to the pool.
	ready := make(chan int, h)
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.run(ready)
	}()
	defer func() {
		close(ready)
		<-done
		o.rows, o.img, o.lo, o.hi, o.out, s.out, s.rng = nil, nil, nil, nil, nil, nil, nil
		filmPool.Put(f)
	}()
	o.run(ready)
	return out, nil
}

// gaussianKernel returns the normalized taps of a Gaussian of standard
// deviation sigma, radius int(3σ+0.5) (at least 1).
func gaussianKernel(sigma float64) []float64 {
	radius := int(3*sigma + 0.5)
	if radius < 1 {
		radius = 1
	}
	kernel := make([]float64, 2*radius+1)
	var sum float64
	for i := range kernel {
		d := float64(i - radius)
		kernel[i] = math.Exp(-d * d / (2 * sigma * sigma))
		sum += kernel[i]
	}
	for i := range kernel {
		kernel[i] /= sum
	}
	return kernel
}

// blur holds a separable blur kernel and its lookup tables.
type blur struct {
	kernel []float64
	half   int
	// ksum is the kernel's weight sum, accumulated in tap order. Interior
	// pixels see every tap, so they divide by it; border pixels divide by
	// the sum of their in-bounds taps instead.
	ksum float64
	// tap[k][v] = kernel[k]*float64(v): the horizontal pass looks products
	// up instead of converting and multiplying.
	tap [][256]float64
	// hflat[v] is the horizontal pass over 2·half+1 pixels of value v, and
	// flat[v] the finished pixel channel for a whole (2·half+1)² window of
	// value v, both for interior pixels. They are built with the loops'
	// own operations in the loops' own order, so a lookup equals the full
	// computation bit for bit.
	hflat [256]float64
	flat  [256]uint8
}

func newBlur(kernel []float64) *blur {
	b := &blur{kernel: kernel, half: len(kernel) / 2, tap: make([][256]float64, len(kernel))}
	for _, kv := range kernel {
		b.ksum += kv
	}
	for k, kv := range kernel {
		for v := range b.tap[k] {
			b.tap[k][v] = kv * float64(v)
		}
	}
	for v := range b.hflat {
		var s float64
		for k := range kernel {
			s += b.tap[k][v]
		}
		b.hflat[v] = s / b.ksum
		var t float64
		for _, kv := range kernel {
			t += kv * b.hflat[v]
		}
		b.flat[v] = clampRound(t / b.ksum)
	}
	return b
}

// optics is the optical stage of one capture: it builds each source row
// (lens model, inverse homography, bilinear sampling, LCD blend), blurs it
// with the separable Gaussian and the horizontal motion box, and writes
// the result into the output row for the sensor stage to finish.
type optics struct {
	w, h int
	// rows is the row plan, seen through lens and inv; img, when set,
	// supplies the source rows directly instead. A plan's row y is dark
	// surround outside [lo[y], hi[y]), the channel's certified surround.
	rows   []Row
	img    *raster.Image
	lens   geometry.RadialDistortion
	inv    geometry.Homography
	lo, hi []int32

	blur   *blur // nil: no defocus blur
	motion int   // horizontal motion-blur length; <= 1 is off

	// ring holds the horizontal pass of the last 2·half+1 source rows,
	// three planes of w floats each; source row s sits in slot s mod
	// (2·half+1).
	ring []float64
	// vrun[x] counts the consecutive source rows, ending at the newest,
	// whose horizontal window at interior column x is one colour, the same
	// colour in each row. Once it reaches 2·half+1, the pixel in column x
	// half rows above the newest has a one-colour (2·half+1)² window.
	vrun []int32
	base []int               // vpass's ring offset per tap
	src  [2][]colorspace.RGB // the two newest source rows of a plan
	vrow []colorspace.RGB    // the blurred row vpass returns
	out  *raster.Image
}

// run streams every row through the optical stage in scan order and
// publishes each finished output row on ready.
func (o *optics) run(ready chan<- int) {
	if o.blur == nil {
		for y := 0; y < o.h; y++ {
			o.emit(y, o.source(y))
			ready <- y
		}
		return
	}
	half := o.blur.half
	var prev []colorspace.RGB
	for s := 0; s < o.h; s++ {
		cur := o.source(s)
		o.hpass(s, cur, prev)
		prev = cur
		// Output row s-half has its whole vertical window in the ring.
		if y := s - half; y >= 0 {
			o.emit(y, o.vpass(y, cur))
			ready <- y
		}
	}
	for y := max(o.h-half, 0); y < o.h; y++ {
		o.emit(y, o.vpass(y, nil))
		ready <- y
	}
}

// source returns source row y: the plan's frame(s) sampled through the
// capture geometry, or img's own row.
func (o *optics) source(y int) []colorspace.RGB {
	if o.img != nil {
		return o.img.Pix[y*o.w : (y+1)*o.w : (y+1)*o.w]
	}
	buf := o.src[y&1]
	r := o.rows[y]
	if r.B == nil {
		clear(buf)
		return buf
	}
	lo, hi := int(o.lo[y]), int(o.hi[y])
	clear(buf[:lo]) // the certified dark surround of the screen
	clear(buf[hi:])
	blends := r.blends()
	fy, fw, fh := float64(y), float64(o.w), float64(o.h)
	for x := lo; x < hi; x++ {
		// Captured pixel -> ideal pinhole position (lens model) -> screen
		// position (inverse perspective).
		src := o.inv.Apply(o.lens.Apply(geometry.Point{X: float64(x), Y: fy}))
		switch {
		case src.X < -1 || src.X > fw || src.Y < -1 || src.Y > fh:
			buf[x] = colorspace.RGBBlack // the dark surround of the screen
		case blends:
			buf[x] = lerpRGB(r.A.Bilinear(src.X, src.Y), r.B.Bilinear(src.X, src.Y), r.Alpha)
		default:
			buf[x] = r.B.Bilinear(src.X, src.Y)
		}
	}
	return buf
}

// lerpRGB mixes two pixels with weight t toward b, rounding each channel.
func lerpRGB(a, b colorspace.RGB, t float64) colorspace.RGB {
	lerp := func(x, y uint8) uint8 {
		return uint8(float64(x)*(1-t) + float64(y)*t + 0.5)
	}
	return colorspace.RGB{R: lerp(a.R, b.R), G: lerp(a.G, b.G), B: lerp(a.B, b.B)}
}

// hpass runs the horizontal Gaussian over source row s into its ring slot
// and advances the uniform-window counters; prev is source row s-1.
func (o *optics) hpass(s int, cur, prev []colorspace.RGB) {
	b, w := o.blur, o.w
	half, taps := b.half, len(b.kernel)
	base := (s % taps) * 3 * w
	tr := o.ring[base : base+w : base+w]
	tg := o.ring[base+w : base+2*w : base+2*w]
	tb := o.ring[base+2*w : base+3*w : base+3*w]
	// Columns [lo, hi) have the whole kernel in bounds horizontally.
	lo := min(half, w)
	hi := max(w-half, lo)
	edge := func(x int) {
		var r, g, bl, wsum float64
		for k, kv := range b.kernel {
			sx := x + k - half
			if sx < 0 || sx >= w {
				continue
			}
			p, t := cur[sx], &b.tap[k]
			r += t[p.R]
			g += t[p.G]
			bl += t[p.B]
			wsum += kv
		}
		tr[x], tg[x], tb[x] = r/wsum, g/wsum, bl/wsum
	}
	for x := 0; x < lo; x++ {
		edge(x)
	}
	for x := hi; x < w; x++ {
		edge(x)
	}
	// run is the length of the run of equal pixels ending at column j; the
	// window of column x = j-half is one colour when it spans the window.
	run := 0
	for j := 0; j < w; j++ {
		if j > 0 && cur[j] == cur[j-1] {
			run++
		} else {
			run = 1
		}
		x := j - half
		if x < lo {
			continue
		}
		p := cur[x]
		if run >= taps {
			tr[x], tg[x], tb[x] = b.hflat[p.R], b.hflat[p.G], b.hflat[p.B]
			if o.vrun[x] > 0 && prev[x] == p {
				o.vrun[x]++
			} else {
				o.vrun[x] = 1
			}
			continue
		}
		o.vrun[x] = 0
		var r, g, bl float64
		for k := range b.kernel {
			q, t := cur[x+k-half], &b.tap[k]
			r += t[q.R]
			g += t[q.G]
			bl += t[q.B]
		}
		tr[x], tg[x], tb[x] = r/b.ksum, g/b.ksum, bl/b.ksum
	}
}

// vpass runs the vertical Gaussian for output row y over the ring and
// returns the blurred row. cur is source row y+half, the newest in the
// ring, when that row exists.
func (o *optics) vpass(y int, cur []colorspace.RGB) []colorspace.RGB {
	b, w, h := o.blur, o.w, o.h
	half, taps := b.half, len(b.kernel)
	// base[k] is the ring offset of source row y+k-half, or -1 when that
	// row lies outside the image.
	base := o.base
	for k := range base {
		base[k] = -1
		if sy := y + k - half; sy >= 0 && sy < h {
			base[k] = (sy % taps) * 3 * w
		}
	}
	dst := o.vrow
	if y >= half && y < h-half {
		// Interior row: the whole kernel is in bounds vertically.
		for x := 0; x < w; x++ {
			if o.vrun[x] >= int32(taps) {
				p := cur[x]
				dst[x] = colorspace.RGB{R: b.flat[p.R], G: b.flat[p.G], B: b.flat[p.B]}
				continue
			}
			var r, g, bl float64
			for k, kv := range b.kernel {
				i := base[k] + x
				r += kv * o.ring[i]
				g += kv * o.ring[i+w]
				bl += kv * o.ring[i+2*w]
			}
			dst[x] = colorspace.RGB{R: clampRound(r / b.ksum), G: clampRound(g / b.ksum), B: clampRound(bl / b.ksum)}
		}
		return dst
	}
	for x := 0; x < w; x++ {
		var r, g, bl, wsum float64
		for k, kv := range b.kernel {
			if base[k] < 0 {
				continue
			}
			i := base[k] + x
			r += kv * o.ring[i]
			g += kv * o.ring[i+w]
			bl += kv * o.ring[i+2*w]
			wsum += kv
		}
		dst[x] = colorspace.RGB{R: clampRound(r / wsum), G: clampRound(g / wsum), B: clampRound(bl / wsum)}
	}
	return dst
}

// emit writes row y to the output, motion blurring it on the way when
// that is on.
func (o *optics) emit(y int, row []colorspace.RGB) {
	dst := o.out.Pix[y*o.w : (y+1)*o.w : (y+1)*o.w]
	if o.motion > 1 {
		motionBlur(row, dst, o.motion)
		return
	}
	copy(dst, row)
}

// motionBlur writes row blurred by a horizontal box of the given length
// (handshake during exposure) to out. Sliding-window integer sums make
// each row O(W) and equal to the naive kernel.
func motionBlur(row, out []colorspace.RGB, length int) {
	half := length / 2
	w := len(row)
	var r, g, b, n int
	for sx := 0; sx <= half && sx < w; sx++ {
		p := row[sx]
		r += int(p.R)
		g += int(p.G)
		b += int(p.B)
		n++
	}
	for x := 0; x < w; x++ {
		out[x] = colorspace.RGB{R: uint8(r / n), G: uint8(g / n), B: uint8(b / n)}
		if sx := x - half; sx >= 0 {
			p := row[sx]
			r -= int(p.R)
			g -= int(p.G)
			b -= int(p.B)
			n--
		}
		if sx := x + half + 1; sx < w {
			p := row[sx]
			r += int(p.R)
			g += int(p.G)
			b += int(p.B)
			n++
		}
	}
}

func clampRound(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(v + 0.5)
}

// sensor is the sensor stage of one capture: spatially correlated chroma
// noise, screen brightness, ambient veiling light and per-pixel Gaussian
// noise, applied in place to each row the optical stage publishes.
type sensor struct {
	w, h int
	out  *raster.Image
	rng  *rand.Rand

	// lit[v] = float64(v)*bright*contrast + level: screen brightness,
	// ambient contrast loss and veil for channel value v, the first three
	// operations of the sensor model in its own order, so adding the noise
	// to an entry yields the model's float bit for bit.
	lit [256]float64

	// coarse holds the chroma noise's per-patch draws, one plane per
	// channel with cw columns; an empty coarse[0] disables chroma noise.
	coarse [3][]float64
	cw     int
	scale  int

	sd    float64   // per-pixel noise standard deviation; <= 0 is off
	noise []float64 // the current row's R,G,B draws; empty when sd <= 0
}

// prepareSensor readies s as the sensor stage of a w x h capture under
// the channel's condition, reusing its buffers, and draws the chroma grid
// from the channel's PRNG.
func (ch *Channel) prepareSensor(s *sensor, w, h int) {
	s.w, s.h, s.rng, s.sd = w, h, ch.rng, ch.cfg.NoiseStdDev
	level, contrast := ch.cfg.Ambient.veil()
	for v := range s.lit {
		s.lit[v] = float64(v)*ch.cfg.ScreenBrightness*contrast + level
	}
	s.noise = s.noise[:0]
	if s.sd > 0 {
		s.noise = grow(s.noise, 3*w)
	}
	for c := range s.coarse {
		s.coarse[c] = s.coarse[c][:0]
	}
	if ch.cfg.ChromaNoiseStdDev > 0 {
		s.scale = ch.cfg.ChromaNoiseScalePx
		if s.scale < 2 {
			s.scale = 8
		}
		s.cw = w/s.scale + 2
		n := s.cw * (h/s.scale + 2)
		for c := range s.coarse {
			s.coarse[c] = grow(s.coarse[c], n)
			for i := range s.coarse[c] {
				s.coarse[c][i] = ch.rng.NormFloat64() * ch.cfg.ChromaNoiseStdDev
			}
		}
	}
}

// run finishes the capture's rows in scan order as ready delivers them.
// Each row's noise is drawn before its row arrives, overlapping the draws
// with the optical stage. It returns early if ready closes first.
func (s *sensor) run(ready <-chan int) {
	for y := 0; y < s.h; y++ {
		for i := range s.noise {
			s.noise[i] = s.rng.NormFloat64() * s.sd
		}
		if _, ok := <-ready; !ok {
			return
		}
		s.finish(y)
	}
}

// finish applies the sensor model to output row y in place.
func (s *sensor) finish(y int) {
	row := s.out.Pix[y*s.w : (y+1)*s.w : (y+1)*s.w]
	chroma := len(s.coarse[0]) > 0
	var y0 int
	var ty float64
	if chroma {
		fy := float64(y) / float64(s.scale)
		y0 = int(fy)
		ty = fy - float64(y0)
	}
	for x, p := range row {
		var cr, cg, cb float64
		if chroma {
			// Bilinear upsample of the coarse grid.
			fx := float64(x) / float64(s.scale)
			x0 := int(fx)
			tx := fx - float64(x0)
			var c [3]float64
			for k := range c {
				v00 := s.coarse[k][y0*s.cw+x0]
				v10 := s.coarse[k][y0*s.cw+x0+1]
				v01 := s.coarse[k][(y0+1)*s.cw+x0]
				v11 := s.coarse[k][(y0+1)*s.cw+x0+1]
				top := v00*(1-tx) + v10*tx
				bot := v01*(1-tx) + v11*tx
				c[k] = top*(1-ty) + bot*ty
			}
			// Chroma artifacts scale with local luminance: camera pipelines
			// denoise shadows aggressively, so dark (structural black)
			// regions keep far less correlated noise than lit ones.
			luma := (0.299*float64(p.R) + 0.587*float64(p.G) + 0.114*float64(p.B)) / 255
			gain := 0.15 + 0.85*luma
			cr, cg, cb = c[0]*gain, c[1]*gain, c[2]*gain
		}
		var nr, ng, nb float64
		if len(s.noise) > 0 {
			nr, ng, nb = s.noise[3*x], s.noise[3*x+1], s.noise[3*x+2]
		}
		row[x] = colorspace.RGB{
			R: clampRound(s.lit[p.R] + (nr + cr)),
			G: clampRound(s.lit[p.G] + (ng + cg)),
			B: clampRound(s.lit[p.B] + (nb + cb)),
		}
	}
}
