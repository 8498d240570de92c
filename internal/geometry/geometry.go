// Package geometry implements the planar geometry used by the optical
// channel simulator and the decoders: 2-D points, 3x3 homographies
// (perspective transforms) with a 4-point DLT solver, and the Brown radial
// lens-distortion model. The paper's evaluation axes "view angle" and
// "distance" (§IV) are realized as homographies; "lens distortion" (§II) as
// the radial model.
package geometry

import (
	"errors"
	"fmt"
	"math"
)

// Point is a 2-D point in pixel coordinates.
type Point struct {
	X, Y float64
}

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Mid returns the midpoint of p and q.
func Mid(p, q Point) Point { return Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2} }

// Lerp returns p + t*(q-p): the point a fraction t of the way from p to q.
func Lerp(p, q Point, t float64) Point {
	return Point{p.X + t*(q.X-p.X), p.Y + t*(q.Y-p.Y)}
}

// LineIntersect returns the intersection of the infinite lines through
// (a1, a2) and (b1, b2). Parallel or degenerate lines return ok = false.
// COBRA-style decoders localize a block as the intersection of the line
// joining its left/right timing blocks with the line joining its
// top/bottom timing blocks.
func LineIntersect(a1, a2, b1, b2 Point) (Point, bool) {
	d1 := a2.Sub(a1)
	d2 := b2.Sub(b1)
	denom := d1.X*d2.Y - d1.Y*d2.X
	if math.Abs(denom) < 1e-12 {
		return Point{}, false
	}
	t := ((b1.X-a1.X)*d2.Y - (b1.Y-a1.Y)*d2.X) / denom
	return a1.Add(d1.Scale(t)), true
}

// Homography is a 3x3 projective transform in row-major order. Applying it
// to (x, y) computes (x', y', w') = H·(x, y, 1) and returns (x'/w', y'/w').
type Homography [9]float64

// Apply transforms p through h. Points mapping to the line at infinity
// (w' == 0) return a far-away sentinel rather than Inf to keep downstream
// pixel math finite.
func (h Homography) Apply(p Point) Point {
	x := h[0]*p.X + h[1]*p.Y + h[2]
	y := h[3]*p.X + h[4]*p.Y + h[5]
	w := h[6]*p.X + h[7]*p.Y + h[8]
	if math.Abs(w) < 1e-12 {
		return Point{X: 1e12, Y: 1e12}
	}
	return Point{X: x / w, Y: y / w}
}

// ErrSingular is returned when a homography cannot be inverted or solved,
// e.g. for degenerate (collinear) correspondence points.
var ErrSingular = errors.New("geometry: singular system")

// Inverse returns h^-1.
func (h Homography) Inverse() (Homography, error) {
	// Adjugate / determinant for a 3x3 matrix.
	a, b, c := h[0], h[1], h[2]
	d, e, f := h[3], h[4], h[5]
	g, hh, i := h[6], h[7], h[8]
	A := e*i - f*hh
	B := -(d*i - f*g)
	C := d*hh - e*g
	det := a*A + b*B + c*C
	if math.Abs(det) < 1e-15 {
		return Homography{}, fmt.Errorf("invert homography: %w", ErrSingular)
	}
	inv := Homography{
		A, -(b*i - c*hh), b*f - c*e,
		B, a*i - c*g, -(a*f - c*d),
		C, -(a*hh - b*g), a*e - b*d,
	}
	for k := range inv {
		inv[k] /= det
	}
	return inv, nil
}

// Solve4Point computes the homography mapping each src[i] to dst[i] from
// exactly four correspondences via the direct linear transform, normalizing
// h22 = 1. Degenerate configurations return ErrSingular.
func Solve4Point(src, dst [4]Point) (Homography, error) {
	// Build the 8x8 system A·h = b for the 8 unknowns h00..h21.
	var a [8][8]float64
	var b [8]float64
	for i := 0; i < 4; i++ {
		sx, sy := src[i].X, src[i].Y
		dx, dy := dst[i].X, dst[i].Y
		a[2*i] = [8]float64{sx, sy, 1, 0, 0, 0, -sx * dx, -sy * dx}
		b[2*i] = dx
		a[2*i+1] = [8]float64{0, 0, 0, sx, sy, 1, -sx * dy, -sy * dy}
		b[2*i+1] = dy
	}
	h8, err := solveLinear8(a, b)
	if err != nil {
		return Homography{}, err
	}
	return Homography{
		h8[0], h8[1], h8[2],
		h8[3], h8[4], h8[5],
		h8[6], h8[7], 1,
	}, nil
}

// solveLinear8 solves an 8x8 linear system by Gaussian elimination with
// partial pivoting.
func solveLinear8(a [8][8]float64, b [8]float64) ([8]float64, error) {
	const n = 8
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return [8]float64{}, fmt.Errorf("solve 4-point homography: %w", ErrSingular)
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]

		for r := col + 1; r < n; r++ {
			factor := a[r][col] / a[col][col]
			if factor == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= factor * a[col][c]
			}
			b[r] -= factor * b[col]
		}
	}
	var x [8]float64
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= a[r][c] * x[c]
		}
		x[r] = sum / a[r][r]
	}
	return x, nil
}

// RadialDistortion is the Brown model with two radial coefficients:
// r' = r·(1 + K1·r² + K2·r⁴), with r normalized by Norm (typically half the
// image diagonal) around Center. Positive K1 produces pincushion
// distortion, negative barrel — the "straight lines become arcs" effect the
// paper cites (§II).
type RadialDistortion struct {
	Center Point
	Norm   float64
	K1, K2 float64
}

// Apply maps an undistorted point to its distorted position.
func (rd RadialDistortion) Apply(p Point) Point {
	if rd.Norm <= 0 || (rd.K1 == 0 && rd.K2 == 0) {
		return p
	}
	d := p.Sub(rd.Center)
	r2 := (d.X*d.X + d.Y*d.Y) / (rd.Norm * rd.Norm)
	f := 1 + rd.K1*r2 + rd.K2*r2*r2
	return rd.Center.Add(d.Scale(f))
}

// PerspectiveView builds the homography a camera sees when photographing a
// planar screen of size (w, h) pixels:
//
//   - viewAngleDeg rotates the screen about its vertical axis (the paper's
//     v_a); foreshortening shrinks the far edge.
//   - scale models distance (d): 1.0 fills the same pixel area as the
//     screen, smaller values model the camera moving away.
//   - (offsetX, offsetY) translate the projected screen inside the capture.
//
// The result maps screen coordinates to capture coordinates.
func PerspectiveView(w, h, viewAngleDeg, scale, offsetX, offsetY float64) (Homography, error) {
	theta := viewAngleDeg * math.Pi / 180
	// Screen corners.
	src := [4]Point{{0, 0}, {w, 0}, {w, h}, {0, h}}

	// Project each corner: rotate the screen plane about the vertical axis
	// through its center, then apply a pinhole projection with focal length
	// proportional to the screen width (a typical phone field of view).
	focal := 1.5 * w
	camDist := 1.5 * w / scale
	var dst [4]Point
	for i, c := range src {
		// Center the corner, rotate about the vertical (y) axis in 3-D.
		x := c.X - w/2
		y := c.Y - h/2
		x3 := x * math.Cos(theta)
		z3 := x * math.Sin(theta)
		// Pinhole projection at distance camDist.
		denom := camDist + z3
		if denom <= 0 {
			return Homography{}, fmt.Errorf("perspective view: corner behind camera (angle %.1f°)", viewAngleDeg)
		}
		px := focal * x3 / denom
		py := focal * y / denom
		dst[i] = Point{px + w/2 + offsetX, py + h/2 + offsetY}
	}
	return Solve4Point(src, dst)
}
