package core

import (
	"fmt"

	"rainbar/internal/colorspace"
	"rainbar/internal/geometry"
	"rainbar/internal/raster"
	"rainbar/internal/vision"
)

// locatorMap holds the capture-space positions of the three code-locator
// columns plus localization diagnostics.
type locatorMap struct {
	// left, mid, right hold one point per locator row (geometry.LocatorRows
	// order). found marks positions confirmed by black pixels; the rest are
	// dead-reckoned predictions.
	left, mid, right    []geometry.Point
	leftOK, midOK, rgOK []bool
	// misses counts locators that had to be dead-reckoned.
	misses int
}

// locateAll runs the progressive localization of §III-E for all three
// columns. The left and right columns are seeded by the corner-tracker
// centers (the CT center is the first code locator); the middle column's
// first locator is searched around the midpoint of the two CT centers.
// With a scratch, the returned locatorMap is scratch-owned.
func (c *Codec) locateAll(img *raster.Image, det *detection, sc *decodeScratch) (*locatorMap, error) {
	return c.locateAllMode(img, det, false, sc)
}

// locateAllMode is locateAll with the recovery ladder's rescue switch: in
// rescue mode the first-middle search widens (double the walk span, a
// taller vertical fan) and, when even that fails, the middle column is
// synthesized COBRA-style from the outer-column midpoints — a degraded
// but usable fix — instead of reporting ErrLocatorLost.
func (c *Codec) locateAllMode(img *raster.Image, det *detection, rescue bool, sc *decodeScratch) (*locatorMap, error) {
	cl := colorspace.NewClassifier(det.tv)
	n := len(c.locRows)

	var lm *locatorMap
	if sc != nil {
		lm = &sc.lm
	} else {
		lm = &locatorMap{}
	}
	lm.left = grow(lm.left, n)
	lm.leftOK = grow(lm.leftOK, n)
	lm.right = grow(lm.right, n)
	lm.rgOK = grow(lm.rgOK, n)
	lm.mid = grow(lm.mid, n)
	lm.midOK = grow(lm.midOK, n)
	lm.misses = 0
	c.locateColumn(img, cl, det.ctLeft, det.bst, lm.left, lm.leftOK)
	c.locateColumn(img, cl, det.ctRight, det.bst, lm.right, lm.rgOK)

	synthMid := func(ok bool) {
		for i := 0; i < n; i++ {
			lm.mid[i] = geometry.Mid(lm.left[i], lm.right[i])
			lm.midOK[i] = ok
		}
	}
	if c.cfg.DisableMiddleLocators {
		// Ablation: synthesize the middle column as straight midpoints of
		// the outer columns — exactly the information COBRA has.
		synthMid(true)
		return lm, nil
	}

	maxOff, dyFan := 0.15, 2
	if rescue {
		maxOff, dyFan = 0.30, 4
	}
	first, err := c.findFirstMiddle(img, cl, det, maxOff, dyFan)
	switch {
	case err == nil:
		c.locateColumn(img, cl, first, det.bst, lm.mid, lm.midOK)
	case rescue:
		// Last resort: midpoint synthesis, every row counted as a miss.
		synthMid(false)
	default:
		return nil, err
	}

	// Cross-column consistency: the three locators of one row are
	// collinear on screen, so under any projective view mid[i] must lie
	// near the line through left[i] and right[i] (the residual is the
	// lens bow, a couple of pixels). A middle walk that locked onto the
	// wrong row — an off-by-one lock-in shifts every block the column
	// anchors by a full row — lands a block height off that line and is
	// snapped back onto it, keeping the walk's x.
	for i := 0; i < n; i++ {
		span := lm.right[i].X - lm.left[i].X
		if span <= 1 {
			continue
		}
		t := (lm.mid[i].X - lm.left[i].X) / span
		lineY := lm.left[i].Y + (lm.right[i].Y-lm.left[i].Y)*t
		if d := lm.mid[i].Y - lineY; d > 0.7*det.bst || -d > 0.7*det.bst {
			lm.mid[i] = geometry.Point{X: lm.mid[i].X, Y: lineY}
			lm.midOK[i] = false
		}
	}

	for i := 0; i < n; i++ {
		if !lm.leftOK[i] {
			lm.misses++
		}
		if !lm.midOK[i] {
			lm.misses++
		}
		if !lm.rgOK[i] {
			lm.misses++
		}
	}
	return lm, nil
}

// locateColumn walks one locator column downward, writing the n located
// points into pts and confirmation flags into ok (both len n, provided by
// the caller). Each locator is predicted from the running step vector (two
// blocks below the previous locator, following the column's local
// direction) and corrected with the K-means location-correction iteration;
// a window with no black pixels leaves the prediction in place (dead
// reckoning) so one blurred locator does not derail the rest of the column.
func (c *Codec) locateColumn(img *raster.Image, cl colorspace.Classifier, start geometry.Point, bst float64, pts []geometry.Point, ok []bool) {
	n := len(pts)
	clear(ok)

	pts[0], _ = vision.KMeansCorrect(img, cl, start, bst)
	ok[0] = true
	step := geometry.Point{X: 0, Y: 2 * bst}

	if c.cfg.DisableLocationCorrection {
		// Ablation (§III-E): pure dead reckoning — every locator predicted
		// two blocks below the previous, never corrected.
		for i := 1; i < n; i++ {
			pts[i] = pts[i-1].Add(step)
		}
		return
	}

	for i := 1; i < n; i++ {
		pred := pts[i-1].Add(step)
		corrected, found := vision.KMeansCorrect(img, cl, pred, bst*1.1)
		// Reject corrections that jump implausibly far: they have latched
		// onto a different black block.
		switch {
		case found && corrected.Dist(pred) <= 0.9*bst:
			pts[i] = corrected
			ok[i] = true
			step = pts[i].Sub(pts[i-1])
		case found && corrected.Dist(pred) <= 1.5*bst:
			// Weak acceptance: keep the point but do not update the step.
			pts[i] = corrected
			ok[i] = true
		default:
			pts[i] = pred
		}
	}
}

// findFirstMiddle implements §III-E's search for the first middle-column
// locator. The locator shares its grid row with the two corner-tracker
// centers, so it must lie ON the line between them — but under perspective
// its position ALONG that line shifts away from the naive midpoint by an
// amount that grows with screen size and view angle, so a fixed box around
// the midpoint (the paper's 3·BST) misses it on large screens. The search
// therefore walks the CT line outward from the midpoint, validates each
// black hit by its 4-direction extent, refines with location correction,
// and accepts the first candidate whose refined center stays on the line.
// maxOff bounds the walk (fraction of the CT span each way) and dyFan the
// vertical fan; the recovery rescan widens both.
func (c *Codec) findFirstMiddle(img *raster.Image, cl colorspace.Classifier, det *detection, maxOff float64, dyFan int) (geometry.Point, error) {
	p := geometry.Mid(det.ctLeft, det.ctRight)
	// Blur erodes the classified black extent well below the true block
	// size at long range, so the lower bound is permissive.
	bMin := int(det.bst * 0.25)
	bMax := int(det.bst*2.0 + 0.5)
	if bMin < 1 {
		bMin = 1
	}

	span := det.ctRight.Sub(det.ctLeft)
	spanLen := det.ctLeft.Dist(det.ctRight)
	lineResidual := func(q geometry.Point) float64 {
		v := q.Sub(det.ctLeft)
		cross := v.X*span.Y - v.Y*span.X
		if cross < 0 {
			cross = -cross
		}
		return cross / spanLen
	}

	probe := func(cand geometry.Point) (geometry.Point, bool) {
		up, down, left, right := vision.BlackExtent(img, cl, cand, bMax+1)
		if w := left + right + 1; w < bMin || w > bMax {
			return geometry.Point{}, false
		}
		if h := up + down + 1; h < bMin || h > bMax {
			return geometry.Point{}, false
		}
		refined, ok := vision.KMeansCorrect(img, cl, cand, det.bst)
		if !ok || lineResidual(refined) > 0.6*det.bst {
			return geometry.Point{}, false
		}
		return refined, true
	}

	// Walk the line outward: t = 0.5 ± k·step, up to maxOff of the span
	// each way (0.15 covers >30° of foreshortening), with a small vertical
	// fan to survive line-estimate error and lens bow.
	step := 1.0 / spanLen // one pixel along the line
	blackLimit := cl.BlackLimit()
	for k := 0; float64(k)*step <= maxOff; k++ {
		for _, sign := range [2]float64{1, -1} {
			if k == 0 && sign < 0 {
				continue
			}
			t := 0.5 + sign*float64(k)*step
			base := geometry.Lerp(det.ctLeft, det.ctRight, t)
			for dy := -dyFan; dy <= dyFan; dy++ {
				cand := geometry.Point{X: base.X, Y: base.Y + float64(dy)}
				x, y := int(cand.X+0.5), int(cand.Y+0.5)
				if !img.In(x, y) || !img.Pix[y*img.W+x].Below(blackLimit) {
					continue
				}
				if refined, ok := probe(cand); ok {
					return refined, nil
				}
			}
		}
	}
	return geometry.Point{}, fmt.Errorf("%w: first middle locator not found near (%.0f, %.0f)", ErrLocatorLost, p.X, p.Y)
}

// anchors computes, for a given grid row, the capture-space positions of
// the left, middle and right locator columns at that row, interpolating
// between (or extrapolating beyond) the located locator rows.
func (c *Codec) anchors(lm *locatorMap, gridRow int) (l, m, r geometry.Point) {
	t, i0, i1 := bracket(c.locRows, gridRow)
	l = geometry.Lerp(lm.left[i0], lm.left[i1], t)
	m = geometry.Lerp(lm.mid[i0], lm.mid[i1], t)
	r = geometry.Lerp(lm.right[i0], lm.right[i1], t)
	return l, m, r
}

// bracket finds locator-row indices i0 < i1 and the interpolation factor t
// such that row corresponds to Lerp(rows[i0], rows[i1], t). Rows outside
// the locator span extrapolate from the nearest pair.
func bracket(rows []int, row int) (t float64, i0, i1 int) {
	last := len(rows) - 1
	switch {
	case row <= rows[0]:
		i0, i1 = 0, 1
	case row >= rows[last]:
		i0, i1 = last-1, last
	default:
		for i := 0; i < last; i++ {
			if row >= rows[i] && row < rows[i+1] {
				i0, i1 = i, i+1
				break
			}
		}
	}
	t = float64(row-rows[i0]) / float64(rows[i1]-rows[i0])
	return t, i0, i1
}

// cellCenter maps grid cell (row, col) to capture coordinates from the
// row's three locator anchors.
//
// The paper's Eq. 1 interpolates linearly within each half-row. Linear
// interpolation of a projective map leaves a residual that peaks mid-span
// and grows with the span length — negligible on small grids, but on the
// S4's 147-column grid at a 10° view angle it reaches most of a block and
// floods Reed-Solomon. The three collinear anchors determine the row's
// 1-D projective map *exactly* (three points fix its three degrees of
// freedom), so we fit that map instead and add the lens bow back as a
// quadratic through the middle anchor's off-chord offset. When the middle
// anchor sits exactly halfway (e.g. the no-middle-column ablation
// synthesizes it as the midpoint), the fit degenerates to Eq. 1's linear
// interpolation.
func (c *Codec) cellCenter(lm *locatorMap, row, col int) geometry.Point {
	rm := c.rowMapAt(lm, row)
	return rm.at(col)
}

// rowMap is the per-grid-row half of cellCenter: the row's anchors, chord
// and middle-anchor terms, which every cell of the row shares. A loop over
// row-major cells builds one per row and maps each cell with at, doing
// cellCenter's float operations in cellCenter's order.
type rowMap struct {
	colL, colM, colR int
	l, r             geometry.Point
	chord, normal    geometry.Point
	// tm and om are the middle anchor's chord parameter and off-chord
	// offset, in chord-relative units.
	tm, om float64
	// linear marks a chord shorter than a pixel, where the row falls back
	// to Eq. 1's linear interpolation between the outer anchors.
	linear bool
}

// rowMapAt computes grid row row's rowMap from its three locator anchors.
func (c *Codec) rowMapAt(lm *locatorMap, row int) rowMap {
	rm := rowMap{}
	rm.colL, rm.colM, rm.colR = c.cfg.Geometry.LocatorCols()
	l, m, r := c.anchors(lm, row)
	rm.l, rm.r = l, r

	chord := r.Sub(l)
	chordLen2 := chord.X*chord.X + chord.Y*chord.Y
	if chordLen2 < 1 {
		rm.linear = true
		return rm
	}
	v := m.Sub(l)
	rm.chord = chord
	rm.tm = (v.X*chord.X + v.Y*chord.Y) / chordLen2
	rm.om = (v.X*chord.Y - v.Y*chord.X) / chordLen2
	rm.normal = geometry.Point{X: chord.Y, Y: -chord.X}
	return rm
}

// at maps column col of the row to capture coordinates.
func (rm *rowMap) at(col int) geometry.Point {
	if rm.linear {
		return geometry.Lerp(rm.l, rm.r, float64(col-rm.colL)/float64(rm.colR-rm.colL))
	}
	t := projectiveParam(float64(col), float64(rm.colL), float64(rm.colM), float64(rm.colR), rm.tm)
	// Lens bow: quadratic through (0,0), (tm,om), (1,0).
	var bow float64
	if rm.tm > 0.05 && rm.tm < 0.95 {
		bow = rm.om * t * (1 - t) / (rm.tm * (1 - rm.tm))
	}
	return rm.l.Add(rm.chord.Scale(t)).Add(rm.normal.Scale(bow))
}

// projectiveParam returns the 1-D projective parameter t(col) with
// t(cL)=0, t(cM)=tm, t(cR)=1 — the fractional-linear map
// t = a(col-cL) / (e(col-cL) + 1). Degenerate fits (tm near the affine
// value, or an ill-conditioned denominator) fall back to linear.
func projectiveParam(col, cL, cM, cR, tm float64) float64 {
	linear := (col - cL) / (cR - cL)
	dm := cM - cL
	dr := cR - cL
	affineTM := dm / dr
	if tm <= 0 || tm >= 1 {
		return linear
	}
	// Solve for e and a from t(cM)=tm, t(cR)=1.
	// From t(cR)=1: a·dr = e·dr + 1  =>  a = e + 1/dr.
	// From t(cM)=tm: a·dm = tm·(e·dm + 1)
	//   => (e + 1/dr)·dm = tm·e·dm + tm
	//   => e·dm(1 - tm) = tm - dm/dr
	denom := dm * (1 - tm)
	if denom < 1e-9 && denom > -1e-9 {
		return linear
	}
	e := (tm - affineTM) / denom
	a := e + 1/dr
	w := e*(col-cL) + 1
	if w < 0.2 { // implausible foreshortening; trust linear instead
		return linear
	}
	return a * (col - cL) / w
}
