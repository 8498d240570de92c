package channel

import (
	"math"
	"sort"

	"rainbar/internal/geometry"
)

// surroundMargin is how far, in screen pixels, a certified pixel must map
// beyond a screen edge in exact arithmetic. The capture's own float path
// (a jittered homography solved and inverted in floating point) differs
// from exact arithmetic by about 1e-9 px, far inside it.
const surroundMargin = 1e-3

// surround holds the extents Surround certified for one w x h capture
// size. The optical stage paints pixels outside [lo[y], hi[y]) black
// without running the lens model, the inverse homography or the bounds
// test on them.
type surround struct {
	w, h   int
	lo, hi []int32
}

// Surround returns the certified dark surround of a w x h capture under
// the channel's condition: in row y, capture pixels left of lo[y] and from
// hi[y] on (lo[y] <= hi[y]) map outside the screen for every jitter in
// [-|JitterPx|, |JitterPx|]². It is built on the first call for a size and
// draws nothing from the PRNG. The slices belong to the channel and hold
// until it films another size.
func (ch *Channel) Surround(w, h int) (lo, hi []int32) {
	s := &ch.surround
	if s.lo != nil && s.w == w && s.h == h {
		return s.lo, s.hi
	}
	s.w, s.h = w, h
	s.lo, s.hi = grow(s.lo, h), grow(s.hi, h)
	c, ok := newCertifier(ch.cfg, w, h)
	for y := range s.lo {
		s.lo[y], s.hi[y] = 0, int32(w)
		if !ok {
			continue
		}
		// Certification is monotone (a sub-segment's box lies inside its
		// segment's), so bisection finds the longest certified prefix and,
		// right of it, the longest certified suffix.
		lo := sort.Search(w, func(k int) bool { return !c.certified(y, 0, k+1) })
		hi := lo + sort.Search(w-lo, func(k int) bool { return c.certified(y, lo+k, w) })
		s.lo[y], s.hi[y] = int32(lo), int32(hi)
	}
	return s.lo, s.hi
}

// certifier tests capture row segments against the channel's geometry.
// At jitter j the capture maps pixel p to screen point inv(lens(p) - j),
// where inv is the zero-jitter inverse homography: PerspectiveView adds
// the jitter after projecting.
type certifier struct {
	inv    geometry.Homography
	lens   geometry.RadialDistortion
	jitter float64 // |JitterPx|
	fw, fh float64
}

// newCertifier returns the certifier of a w x h capture, or false when
// nothing can be certified: a config value the geometry reads is NaN or
// infinite, or the zero-jitter view does not invert.
func newCertifier(cfg Config, w, h int) (certifier, bool) {
	for _, v := range []float64{cfg.DistanceCM, cfg.ViewAngleDeg, cfg.LensK1, cfg.LensK2, cfg.JitterPx} {
		if !(math.Abs(v) <= math.MaxFloat64) {
			return certifier{}, false
		}
	}
	hom, err := geometry.PerspectiveView(float64(w), float64(h), cfg.ViewAngleDeg, cfg.scale(), 0, 0)
	if err != nil {
		return certifier{}, false
	}
	inv, err := hom.Inverse()
	if err != nil {
		return certifier{}, false
	}
	return certifier{
		inv:    inv,
		lens:   captureLens(cfg, w, h),
		jitter: math.Abs(cfg.JitterPx),
		fw:     float64(w),
		fh:     float64(h),
	}, true
}

// certified reports whether capture pixels [x0, x1) of row y all map
// beyond one screen edge, by surroundMargin, at every jitter. The lens
// images of the segment, moved by every jitter, lie in one box. Each
// screen coordinate of inv is a ratio of affine functions of the box
// point, so once the denominator is positive at the four corners it is
// positive on the whole box, and "beyond an edge" is an affine inequality
// that holds on the box when it holds at the corners.
func (c *certifier) certified(y, x0, x1 int) bool {
	if x0 >= x1 {
		return true
	}
	qx0, qx1, qy0, qy1 := c.lensBox(y, float64(x0), float64(x1-1))
	qx0, qx1, qy0, qy1 = qx0-c.jitter, qx1+c.jitter, qy0-c.jitter, qy1+c.jitter
	const m = surroundMargin
	h := &c.inv
	left, right, top, bottom := true, true, true, true
	for _, q := range [4]geometry.Point{{X: qx0, Y: qy0}, {X: qx1, Y: qy0}, {X: qx0, Y: qy1}, {X: qx1, Y: qy1}} {
		sx := h[0]*q.X + h[1]*q.Y + h[2]
		sy := h[3]*q.X + h[4]*q.Y + h[5]
		sw := h[6]*q.X + h[7]*q.Y + h[8]
		// Finite values only: an overflow at a corner could hide a NaN in
		// the capture's own arithmetic inside the box.
		if !(sw > 0) || !(math.Abs(sx) <= math.MaxFloat64) || !(math.Abs(sy) <= math.MaxFloat64) || !(sw <= math.MaxFloat64) {
			return false
		}
		left = left && sx < (-1-m)*sw
		right = right && sx > (c.fw+m)*sw
		top = top && sy < (-1-m)*sw
		bottom = bottom && sy > (c.fh+m)*sw
	}
	return left || right || top || bottom
}

// lensBox bounds the lens images of row y's pixels x in [xa, xb]: the
// model scales each offset d from the centre by f = 1 + K1·r² + K2·r⁴,
// with r² = |d|²/Norm², so the box follows from the range of r² over the
// segment, the range of f over that (its ends and, when inside, the
// vertex of the quadratic), and interval products. Each bound is widened
// by a relative 1e-9 for rounding.
func (c *certifier) lensBox(y int, xa, xb float64) (qx0, qx1, qy0, qy1 float64) {
	rd := c.lens
	dx0, dx1, dy := xa-rd.Center.X, xb-rd.Center.X, float64(y)-rd.Center.Y
	t0, t1 := min(dx0*dx0, dx1*dx1), max(dx0*dx0, dx1*dx1)
	if dx0 <= 0 && dx1 >= 0 {
		t0 = 0
	}
	nn := rd.Norm * rd.Norm
	t0, t1 = (t0+dy*dy)/nn, (t1+dy*dy)/nn
	// With K1 = K2 = 0 (the model's identity) f is exactly 1, and with
	// K2 = 0 the vertex is not finite.
	f := func(t float64) float64 { return 1 + rd.K1*t + rd.K2*t*t }
	f0, f1 := min(f(t0), f(t1)), max(f(t0), f(t1))
	if tv := -rd.K1 / (2 * rd.K2); tv > t0 && tv < t1 {
		f0, f1 = min(f0, f(tv)), max(f1, f(tv))
	}
	px := [4]float64{dx0 * f0, dx0 * f1, dx1 * f0, dx1 * f1}
	widen := func(v float64) float64 { return 1e-9 * (math.Abs(v) + 1) }
	qx0 = rd.Center.X + min(px[0], px[1], px[2], px[3])
	qx1 = rd.Center.X + max(px[0], px[1], px[2], px[3])
	qy0 = rd.Center.Y + min(dy*f0, dy*f1)
	qy1 = rd.Center.Y + max(dy*f0, dy*f1)
	return qx0 - widen(qx0), qx1 + widen(qx1), qy0 - widen(qy0), qy1 + widen(qy1)
}

// captureLens is the lens model of a w x h capture under cfg.
func captureLens(cfg Config, w, h int) geometry.RadialDistortion {
	return geometry.RadialDistortion{
		Center: geometry.Point{X: float64(w) / 2, Y: float64(h) / 2},
		Norm:   math.Hypot(float64(w), float64(h)) / 2,
		K1:     cfg.LensK1,
		K2:     cfg.LensK2,
	}
}
