package channel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

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
// their row buffers, the sensor stage's noise ring and hand-off state, and
// the blur tables last built. A capture takes one from filmPool and
// returns it, so a warm capture allocates only its output image and its
// sensor goroutine. The pool, rather than the Channel, holds the scratch
// between captures: a daemon keeps a Channel for every session it still
// reports on, and would keep a scratch for each.
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
	o.spans = grow(o.spans, len(kernel))
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
// goroutine alone. Only one goroutine touches the PRNG at a time, the
// optical stage handles its rows sequentially, and each row is finished
// once, from the same inputs, by whichever goroutine claims it, so the
// capture does not depend on GOMAXPROCS or scheduling.
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

	// The sensor goroutine draws every row's noise and finishes rows while
	// its ring is full; the caller films the optical rows and then finishes
	// rows whose noise is drawn. On every exit path stop ends the sensor
	// goroutine and joins it. The scratch then lets go of the capture's
	// frames, output and PRNG and goes back to the pool.
	s.joined.Add(1)
	go s.help()
	defer func() {
		s.stop()
		o.rows, o.img, o.lo, o.hi, o.out, s.out, s.rng = nil, nil, nil, nil, nil, nil, nil
		filmPool.Put(f)
	}()
	o.run(s)
	s.finishDrawn()
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
	// (2·half+1), and spans[s mod (2·half+1)] is its lit span.
	ring  []float64
	spans []span
	// vrun[x] counts the consecutive source rows, ending at the newest,
	// whose horizontal window at interior column x is one colour, the same
	// colour in each row. Once it reaches 2·half+1, the pixel in column x
	// half rows above the newest has a one-colour (2·half+1)² window. It
	// may under-count, which only sends a pixel down the full computation.
	vrun []int32
	base []int               // vpass's ring offset per tap
	src  [2][]colorspace.RGB // the two newest source rows of a plan
	vrow []colorspace.RGB    // the blurred row vpass returns
	out  *raster.Image
}

// span is a source row's lit span [lo, hi): the columns the screen may
// reach. Outside it the row is black. An empty span (lo >= hi) is a row
// the screen does not reach at all.
type span struct{ lo, hi int }

// run streams every row through the optical stage in scan order and
// publishes each finished output row to the sensor stage s.
func (o *optics) run(s *sensor) {
	if o.blur == nil {
		for y := 0; y < o.h; y++ {
			o.emit(y, o.source(y))
			s.publish(y)
		}
		return
	}
	half := o.blur.half
	var prev []colorspace.RGB
	for sy := 0; sy < o.h; sy++ {
		cur := o.source(sy)
		o.hpass(sy, cur, prev)
		prev = cur
		// Output row sy-half has its whole vertical window in the ring.
		if y := sy - half; y >= 0 {
			o.emit(y, o.vpass(y, cur))
			s.publish(y)
		}
	}
	for y := max(o.h-half, 0); y < o.h; y++ {
		o.emit(y, o.vpass(y, nil))
		s.publish(y)
	}
}

// litSpan returns source row y's lit span: all of an img row, none of a
// plan row that shows no frame, and the rest of a plan row outside the
// channel's certified surround.
func (o *optics) litSpan(y int) span {
	switch {
	case o.img != nil:
		return span{0, o.w}
	case o.rows[y].B == nil:
		return span{}
	}
	return span{int(o.lo[y]), int(o.hi[y])}
}

// source returns source row y: the plan's frame(s) sampled through the
// capture geometry, or img's own row.
func (o *optics) source(y int) []colorspace.RGB {
	if o.img != nil {
		return o.img.Pix[y*o.w : (y+1)*o.w : (y+1)*o.w]
	}
	buf := o.src[y&1]
	sp := o.litSpan(y)
	if sp.lo >= sp.hi {
		clear(buf) // no frame shown, or all certified dark surround
		return buf
	}
	clear(buf[:sp.lo]) // the certified dark surround of the screen
	clear(buf[sp.hi:])
	r := o.rows[y]
	blends := r.blends()
	fy, fw, fh := float64(y), float64(o.w), float64(o.h)
	for x := sp.lo; x < sp.hi; x++ {
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
//
// An interior column whose window misses the row's lit span sees black
// only, and black blurs to exactly 0 on every path (0/ksum, hflat[0]), so
// it gets 0 and its vrun restarts without reading a pixel.
func (o *optics) hpass(s int, cur, prev []colorspace.RGB) {
	b, w := o.blur, o.w
	half, taps := b.half, len(b.kernel)
	slot := s % taps
	base := slot * 3 * w
	tr := o.ring[base : base+w : base+w]
	tg := o.ring[base+w : base+2*w : base+2*w]
	tb := o.ring[base+2*w : base+3*w : base+3*w]
	// Columns [in0, in1) have the whole kernel in bounds horizontally.
	in0 := min(half, w)
	in1 := max(w-half, in0)
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
	for x := 0; x < in0; x++ {
		edge(x)
	}
	for x := in1; x < w; x++ {
		edge(x)
	}
	// Of the interior columns, [x0, x1) have a window that reaches the lit
	// span.
	sp := o.litSpan(s)
	o.spans[slot] = sp
	x0, x1 := max(sp.lo-half, in0), min(sp.hi+half, in1)
	dark := func(a, z int) {
		clear(tr[a:z])
		clear(tg[a:z])
		clear(tb[a:z])
		clear(o.vrun[a:z])
	}
	if sp.lo >= sp.hi || x0 >= x1 {
		dark(in0, in1)
		return
	}
	dark(in0, x0)
	dark(x1, in1)
	// run is the length of the run of equal pixels ending at column j,
	// counted from x0-half, the left end of column x0's window; the window
	// of column x = j-half is one colour when the run spans it.
	run := 0
	for j := x0 - half; j < min(x1+half, w); j++ {
		if j > x0-half && cur[j] == cur[j-1] {
			run++
		} else {
			run = 1
		}
		x := j - half
		if x < x0 {
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
		// Interior row: the whole kernel is in bounds vertically, and the
		// ring holds exactly the window's source rows. A column more than
		// half beyond each of their lit spans has 0 at every tap (hpass),
		// and so blurs to 0 on every path (clampRound(0/ksum), flat[0]):
		// only [x0, x1) is computed.
		x0, x1 := w, 0
		for _, sp := range o.spans {
			if sp.lo < sp.hi {
				x0, x1 = min(x0, sp.lo-half), max(x1, sp.hi+half)
			}
		}
		x0, x1 = max(x0, 0), min(x1, w)
		if x0 >= x1 {
			clear(dst)
			return dst
		}
		clear(dst[:x0])
		clear(dst[x1:])
		for x := x0; x < x1; x++ {
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

// noiseRing is how many rows of noise the sensor goroutine may hold drawn
// ahead of the first unfinished row, and wakeBatch how many rows it draws
// between wake-ups of a caller waiting for noise (wakeBatch <= noiseRing,
// so a waiting caller is always woken before the ring fills).
const (
	noiseRing = 8
	wakeBatch = 4
)

// sensor is the sensor stage of one capture: spatially correlated chroma
// noise, screen brightness, ambient veiling light and per-pixel Gaussian
// noise, applied in place to each row the optical stage publishes.
//
// Its goroutine (help) makes the capture's only PRNG draws after it
// starts: each row's noise, in scan order, into a ring. Either goroutine
// finishes a row once it is drawn and emitted, claiming it by
// compare-and-swap on next; a slot is redrawn only after its row's done
// flag is set. Neither goroutine spins.
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

	sd float64 // per-pixel noise standard deviation; <= 0 is off
	// noise is the ring of drawn rows, 3·w R,G,B draws each: row y's sit
	// in slot y mod noiseRing. Empty when sd <= 0.
	noise []float64

	// drawn counts the rows whose noise is in the ring (written by the
	// sensor goroutine), emitted the output rows the optical stage has
	// written (written by the caller), and next is the first row not yet
	// claimed. done[y] is set once row y is finished.
	drawn, emitted, next atomic.Int64
	done                 []atomic.Bool
	// toHelper wakes the sensor goroutine after the caller emits or
	// finishes a row; toCaller wakes the caller every wakeBatch drawn rows
	// and after the last. A wake-up never blocks its sender, and a stale
	// one costs its receiver one extra look.
	toHelper, toCaller chan struct{}
	joined             sync.WaitGroup
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
		s.noise = grow(s.noise, 3*w*min(h, noiseRing))
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
	s.drawn.Store(0)
	s.emitted.Store(0)
	s.next.Store(0)
	s.done = grow(s.done, h)
	for y := range s.done {
		s.done[y].Store(false)
	}
	if s.toHelper == nil {
		s.toHelper, s.toCaller = make(chan struct{}, 1), make(chan struct{}, 1)
	}
}

// help is the sensor goroutine. It draws the next row's noise whenever the
// ring has room, finishes the next row itself only when the ring is full,
// and returns once every row is claimed.
func (s *sensor) help() {
	defer s.joined.Done()
	h := int64(s.h)
	var d int64 // rows drawn
	for {
		c := s.next.Load()
		switch {
		case c >= h:
			return
		case d < h && (d < noiseRing || s.done[d-noiseRing].Load()):
			slot := s.slot(int(d))
			for i := range slot {
				slot[i] = s.rng.NormFloat64() * s.sd
			}
			d++
			s.drawn.Store(d)
			if d%wakeBatch == 0 || d == h {
				wake(s.toCaller)
			}
		case c < d && c < s.emitted.Load():
			s.claim(c)
		default:
			<-s.toHelper
		}
	}
}

// finishDrawn is the caller's share of the sensor stage, run once all its
// optical rows are emitted: it finishes rows whose noise is drawn until
// every row is claimed, and sleeps while the sensor goroutine draws.
func (s *sensor) finishDrawn() {
	h := int64(s.h)
	for {
		c := s.next.Load()
		switch {
		case c >= h:
			return
		case c < s.drawn.Load():
			if s.claim(c) {
				wake(s.toHelper)
			}
		default:
			<-s.toCaller
		}
	}
}

// claim finishes row c if it is still the first unclaimed row, and reports
// whether it did. Row c must be drawn and emitted.
func (s *sensor) claim(c int64) bool {
	if !s.next.CompareAndSwap(c, c+1) {
		return false
	}
	s.finish(int(c))
	s.done[c].Store(true)
	return true
}

// publish hands output row y, just written, to the sensor stage.
func (s *sensor) publish(y int) {
	s.emitted.Store(int64(y) + 1)
	wake(s.toHelper)
}

// stop claims every row still unclaimed, wakes the sensor goroutine and
// joins it. After a whole capture every row is claimed already; after a
// panic in the caller the goroutine returns once its current row is done.
func (s *sensor) stop() {
	s.next.Store(int64(s.h))
	wake(s.toHelper)
	s.joined.Wait()
}

// wake posts a wake-up on a one-slot channel without blocking.
func wake(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// slot returns row y's R,G,B noise draws in the ring, or nil when noise is
// off.
func (s *sensor) slot(y int) []float64 {
	if len(s.noise) == 0 {
		return nil
	}
	n := 3 * s.w
	i := y % noiseRing * n
	return s.noise[i : i+n : i+n]
}

// finish applies the sensor model to output row y in place.
func (s *sensor) finish(y int) {
	row := s.out.Pix[y*s.w : (y+1)*s.w : (y+1)*s.w]
	noise := s.slot(y)
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
		if len(noise) > 0 {
			nr, ng, nb = noise[3*x], noise[3*x+1], noise[3*x+2]
		}
		row[x] = colorspace.RGB{
			R: clampRound(s.lit[p.R] + (nr + cr)),
			G: clampRound(s.lit[p.G] + (ng + cg)),
			B: clampRound(s.lit[p.B] + (nb + cb)),
		}
	}
}
