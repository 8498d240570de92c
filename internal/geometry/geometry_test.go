package geometry

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b Point, tol float64) bool {
	return math.Abs(a.X-b.X) <= tol && math.Abs(a.Y-b.Y) <= tol
}

func TestPointArithmetic(t *testing.T) {
	p := Point{3, 4}
	q := Point{1, 2}
	if got := p.Add(q); got != (Point{4, 6}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{2, 2}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{6, 8}) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Dist(Point{0, 0}); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := Mid(p, q); got != (Point{2, 3}) {
		t.Errorf("Mid = %v", got)
	}
	if got := Lerp(p, q, 0); got != p {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := Lerp(p, q, 1); got != q {
		t.Errorf("Lerp(1) = %v", got)
	}
	if got := Lerp(Point{0, 0}, Point{10, 20}, 0.25); got != (Point{2.5, 5}) {
		t.Errorf("Lerp(0.25) = %v", got)
	}
}

func TestIdentityApply(t *testing.T) {
	h := Homography{1, 0, 0, 0, 1, 0, 0, 0, 1}
	p := Point{12.5, -3}
	if got := h.Apply(p); !almostEq(got, p, 1e-12) {
		t.Errorf("identity moved point: %v", got)
	}
}

func TestInverseRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		h := Homography{
			1 + rng.Float64(), rng.Float64() * 0.2, rng.Float64() * 50,
			rng.Float64() * 0.2, 1 + rng.Float64(), rng.Float64() * 50,
			rng.Float64() * 1e-4, rng.Float64() * 1e-4, 1,
		}
		inv, err := h.Inverse()
		if err != nil {
			t.Fatalf("Inverse: %v", err)
		}
		p := Point{rng.Float64() * 100, rng.Float64() * 100}
		back := inv.Apply(h.Apply(p))
		if !almostEq(back, p, 1e-6) {
			t.Fatalf("inverse round trip: %v -> %v", p, back)
		}
	}
}

func TestInverseSingular(t *testing.T) {
	var zero Homography
	if _, err := zero.Inverse(); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolve4PointExact(t *testing.T) {
	src := [4]Point{{0, 0}, {100, 0}, {100, 50}, {0, 50}}
	dst := [4]Point{{10, 5}, {95, 8}, {92, 60}, {8, 55}}
	h, err := Solve4Point(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if got := h.Apply(src[i]); !almostEq(got, dst[i], 1e-6) {
			t.Errorf("corner %d: %v, want %v", i, got, dst[i])
		}
	}
}

func TestSolve4PointIsProjective(t *testing.T) {
	// The interior must map consistently: midpoints of the quad diagonals
	// land on the intersection of the mapped diagonals.
	src := [4]Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}}
	dst := [4]Point{{0, 0}, {12, 1}, {11, 9}, {-1, 11}}
	h, err := Solve4Point(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	// A homography preserves collinearity: the mapped center of the source
	// diagonal must lie on the segment between mapped opposite corners.
	center := h.Apply(Point{5, 5})
	d1a, d1b := h.Apply(Point{0, 0}), h.Apply(Point{10, 10})
	// Cross product of (center-d1a) and (d1b-d1a) must vanish.
	v1 := center.Sub(d1a)
	v2 := d1b.Sub(d1a)
	cross := v1.X*v2.Y - v1.Y*v2.X
	if math.Abs(cross) > 1e-6 {
		t.Errorf("collinearity violated: cross = %v", cross)
	}
}

func TestSolve4PointDegenerate(t *testing.T) {
	// Three collinear source points make the system singular.
	src := [4]Point{{0, 0}, {1, 1}, {2, 2}, {0, 10}}
	dst := [4]Point{{0, 0}, {1, 0}, {1, 1}, {0, 1}}
	if _, err := Solve4Point(src, dst); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolve4PointRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := [4]Point{{0, 0}, {200, 0}, {200, 100}, {0, 100}}
		var dst [4]Point
		for i, p := range src {
			dst[i] = Point{p.X + rng.Float64()*20 - 10, p.Y + rng.Float64()*20 - 10}
		}
		h, err := Solve4Point(src, dst)
		if err != nil {
			return true // rare degenerate jitter; nothing to check
		}
		inv, err := h.Inverse()
		if err != nil {
			return true
		}
		p := Point{rng.Float64() * 200, rng.Float64() * 100}
		return almostEq(inv.Apply(h.Apply(p)), p, 1e-5)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRadialDistortionIdentityCases(t *testing.T) {
	p := Point{40, 60}
	if got := (RadialDistortion{}).Apply(p); got != p {
		t.Errorf("zero distortion moved point: %v", got)
	}
	rd := RadialDistortion{Center: Point{50, 50}, Norm: 100}
	if got := rd.Apply(p); got != p {
		t.Errorf("K1=K2=0 moved point: %v", got)
	}
}

func TestRadialDistortionCenterFixed(t *testing.T) {
	rd := RadialDistortion{Center: Point{50, 50}, Norm: 100, K1: 0.1}
	if got := rd.Apply(Point{50, 50}); got != (Point{50, 50}) {
		t.Errorf("center moved: %v", got)
	}
}

func TestRadialDistortionDirection(t *testing.T) {
	rd := RadialDistortion{Center: Point{0, 0}, Norm: 100, K1: 0.1}
	// Pincushion (positive K1): points move away from center.
	got := rd.Apply(Point{50, 0})
	if got.X <= 50 {
		t.Errorf("pincushion pulled inward: %v", got)
	}
	rd.K1 = -0.1
	got = rd.Apply(Point{50, 0})
	if got.X >= 50 {
		t.Errorf("barrel pushed outward: %v", got)
	}
}

func TestRadialDistortionGrowsWithRadius(t *testing.T) {
	rd := RadialDistortion{Center: Point{0, 0}, Norm: 100, K1: 0.05}
	d1 := rd.Apply(Point{20, 0}).X - 20
	d2 := rd.Apply(Point{80, 0}).X - 80
	if d2 <= d1 {
		t.Errorf("distortion not increasing with radius: %v vs %v", d1, d2)
	}
}

func TestPerspectiveViewZeroAngleIsScale(t *testing.T) {
	h, err := PerspectiveView(1000, 500, 0, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// At angle 0 and scale 1 the corners should stay put (projection is
	// centered and focal/camDist cancel).
	for _, p := range []Point{{0, 0}, {1000, 0}, {1000, 500}, {0, 500}} {
		if got := h.Apply(p); !almostEq(got, p, 1e-6) {
			t.Errorf("corner %v moved to %v", p, got)
		}
	}
}

func TestPerspectiveViewForeshortens(t *testing.T) {
	h, err := PerspectiveView(1000, 500, 25, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Rotating about the vertical axis makes one vertical edge taller
	// (nearer) and the other shorter (farther).
	left := h.Apply(Point{0, 0}).Dist(h.Apply(Point{0, 500}))
	right := h.Apply(Point{1000, 0}).Dist(h.Apply(Point{1000, 500}))
	if left == right {
		t.Fatal("no foreshortening at 25°")
	}
}

func TestPerspectiveViewScaleShrinks(t *testing.T) {
	h, err := PerspectiveView(1000, 500, 0, 0.5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	width := h.Apply(Point{0, 250}).Dist(h.Apply(Point{1000, 250}))
	if math.Abs(width-500) > 1 {
		t.Errorf("projected width at scale 0.5 = %v, want ~500", width)
	}
}

func TestApplyAtInfinityIsFinite(t *testing.T) {
	// A homography with a vanishing third row maps points to w'=0;
	// Apply must return the finite sentinel, not Inf/NaN.
	h := Homography{1, 0, 0, 0, 1, 0, 0, 0, 0}
	got := h.Apply(Point{1, 1})
	if math.IsInf(got.X, 0) || math.IsNaN(got.X) {
		t.Fatalf("Apply at infinity = %v", got)
	}
}

func TestLineIntersect(t *testing.T) {
	// Perpendicular lines crossing at (2, 3).
	p, ok := LineIntersect(Point{0, 3}, Point{10, 3}, Point{2, 0}, Point{2, 10})
	if !ok || !almostEq(p, Point{2, 3}, 1e-12) {
		t.Fatalf("intersection = %v ok=%v", p, ok)
	}
	// Diagonals of the unit square cross at the center.
	p, ok = LineIntersect(Point{0, 0}, Point{1, 1}, Point{1, 0}, Point{0, 1})
	if !ok || !almostEq(p, Point{0.5, 0.5}, 1e-12) {
		t.Fatalf("diagonal intersection = %v ok=%v", p, ok)
	}
	// The intersection may lie beyond the given segments (infinite lines).
	p, ok = LineIntersect(Point{0, 0}, Point{1, 0}, Point{5, 1}, Point{5, 2})
	if !ok || !almostEq(p, Point{5, 0}, 1e-12) {
		t.Fatalf("extended intersection = %v ok=%v", p, ok)
	}
}

func TestLineIntersectParallel(t *testing.T) {
	if _, ok := LineIntersect(Point{0, 0}, Point{1, 0}, Point{0, 1}, Point{1, 1}); ok {
		t.Fatal("parallel lines intersected")
	}
	if _, ok := LineIntersect(Point{0, 0}, Point{0, 0}, Point{1, 1}, Point{2, 2}); ok {
		t.Fatal("degenerate line intersected")
	}
}
