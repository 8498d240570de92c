// Package vision provides the small computer-vision primitives shared by
// the RainBar and COBRA decoders: connected-component labeling of black
// blocks straight from a capture's pixels, the K-means-style
// location-correction iteration of §III-E, black-extent probing, and
// ring-color voting around a candidate corner-tracker center. Pure Go;
// these stand in for the OpenCV primitives a smartphone implementation
// would use.
package vision

import (
	"rainbar/internal/colorspace"
	"rainbar/internal/geometry"
	"rainbar/internal/raster"
)

// Blob is a connected component of black cells on the stride-sampled grid
// of a capture. In both barcode layouts black cells are never adjacent
// (locators and corner-tracker centers are isolated by colored blocks), so
// each in-frame blob is a single block — which makes blobs both anchor
// candidates and block-size estimates. The dark screen surround forms one
// giant blob that size filters reject.
type Blob struct {
	// Size is the number of grid cells in the component.
	Size int
	// MinX..MaxY is the bounding box in grid coordinates.
	MinX, MinY, MaxX, MaxY int
	sumX, sumY             int
}

// Width returns the bounding-box width in grid cells.
func (b *Blob) Width() int { return b.MaxX - b.MinX + 1 }

// Height returns the bounding-box height in grid cells.
func (b *Blob) Height() int { return b.MaxY - b.MinY + 1 }

// Centroid returns the component centroid in grid coordinates.
func (b *Blob) Centroid() (float64, float64) {
	return float64(b.sumX) / float64(b.Size), float64(b.sumY) / float64(b.Size)
}

// merge folds component o into b.
func (b *Blob) merge(o *Blob) {
	b.Size += o.Size
	b.MinX, b.MaxX = min(b.MinX, o.MinX), max(b.MaxX, o.MaxX)
	b.MinY, b.MaxY = min(b.MinY, o.MinY), max(b.MaxY, o.MaxY)
	b.sumX += o.sumX
	b.sumY += o.sumY
}

// run is a horizontal run of black cells, columns x0..x1 inclusive.
type run struct{ x0, x1 int }

// BlobScratch holds the reusable working state of BlackBlobs — every run
// of the grid, its union-find parent and its component stats — so a
// decoder that labels one capture after another does not reallocate them.
// The zero value is ready to use; a BlobScratch is not safe for concurrent
// use.
type BlobScratch struct {
	runs   []run
	parent []int32 // a root is its component's lowest run id
	stats  []Blob  // per run; at a root, the whole component's
}

// BlackBlobs labels the 8-connected components of black cells on the grid
// that samples img every stride pixels: cell (x, y) is pixel
// (x·stride, y·stride), for mw = W/stride columns and mh = H/stride rows,
// and it is black when the pixel is Below(cl.BlackLimit()), that is when
// cl.ClassifyRGB classifies it Black. Components smaller than 2 cells are
// dropped as noise.
//
// It is one pass over the sampled pixels. Each row's black runs are
// unioned with every previous-row run whose x-range lies within ±1 of
// theirs. The lowest run id is a component's root, so blobs come out in
// the raster order of their first cell. Sizes, bounding boxes and
// coordinate sums are integers summed per run, so nothing depends on the
// order runs join. The returned slice is owned by the scratch and valid
// until the next call.
func (s *BlobScratch) BlackBlobs(img *raster.Image, cl colorspace.Classifier, stride int) (blobs []Blob, mw, mh int) {
	mw, mh = img.W/stride, img.H/stride
	limit := cl.BlackLimit()
	s.runs, s.parent, s.stats = s.runs[:0], s.parent[:0], s.stats[:0]
	for y, prev := 0, 0; y < mh && mw > 0; y++ {
		cur := len(s.runs)
		row := img.Pix[y*stride*img.W:][:(mw-1)*stride+1]
		near := prev // first previous-row run that can touch the next run
		for x := 0; x < mw; x++ {
			if !row[x*stride].Below(limit) {
				continue
			}
			x0 := x
			for x+1 < mw && row[(x+1)*stride].Below(limit) {
				x++
			}
			near = s.addRun(x0, x, y, near, cur)
		}
		prev = cur
	}
	// Roots in run-id order are the components in first-cell order; pack
	// the kept ones to the front of stats (the write index never passes
	// the read index).
	out := s.stats[:0]
	for i, b := range s.stats {
		if s.parent[i] == int32(i) && b.Size >= 2 {
			out = append(out, b)
		}
	}
	return out, mw, mh
}

// addRun records the run x0..x1 of row y and unions it with the runs of
// the previous row, s.runs[near:cur], that lie within one column of it. It
// returns the new near: runs ending left of x0-1 cannot touch the row's
// later runs either, which all start right of x1+1.
func (s *BlobScratch) addRun(x0, x1, y, near, cur int) int {
	id := int32(len(s.runs))
	n := x1 - x0 + 1
	s.runs = append(s.runs, run{x0, x1})
	s.parent = append(s.parent, id)
	s.stats = append(s.stats, Blob{
		Size: n, MinX: x0, MaxX: x1, MinY: y, MaxY: y,
		sumX: (x0 + x1) * n / 2, sumY: y * n,
	})
	for near < cur && s.runs[near].x1 < x0-1 {
		near++
	}
	for k := near; k < cur && s.runs[k].x0 <= x1+1; k++ {
		s.union(id, int32(k))
	}
	return near
}

// union joins the components of runs a and b under the lower root.
func (s *BlobScratch) union(a, b int32) {
	ra, rb := s.find(a), s.find(b)
	if ra == rb {
		return
	}
	if rb < ra {
		ra, rb = rb, ra
	}
	s.parent[rb] = ra
	s.stats[ra].merge(&s.stats[rb])
}

// find returns the root of run i, halving the path on the way.
func (s *BlobScratch) find(i int32) int32 {
	p := s.parent
	for p[i] != i {
		p[i] = p[p[i]]
		i = p[i]
	}
	return i
}

// KMeansCorrect is the paper's location-correction algorithm (§III-E):
// iterate "centroid of the black pixels within an edge-length window"
// until the location converges. The boolean reports whether any black
// pixels were found; when false, the input point is returned unchanged.
func KMeansCorrect(img *raster.Image, cl colorspace.Classifier, p geometry.Point, edge float64) (geometry.Point, bool) {
	if edge < 2 {
		edge = 2
	}
	half := int(edge/2 + 0.5)
	limit := cl.BlackLimit()
	cur := p
	for iter := 0; iter < 12; iter++ {
		var sumX, sumY float64
		var n int
		cx, cy := int(cur.X+0.5), int(cur.Y+0.5)
		for dy := -half; dy <= half; dy++ {
			for dx := -half; dx <= half; dx++ {
				x, y := cx+dx, cy+dy
				if !img.In(x, y) {
					continue
				}
				if img.Pix[y*img.W+x].Below(limit) {
					sumX += float64(x)
					sumY += float64(y)
					n++
				}
			}
		}
		if n == 0 {
			return p, false
		}
		next := geometry.Point{X: sumX / float64(n), Y: sumY / float64(n)}
		if next.Dist(cur) < 0.05 {
			return next, true
		}
		cur = next
	}
	return cur, true
}

// BlackExtent measures how far black pixels extend from p in the four
// axis directions, up to maxSteps each.
func BlackExtent(img *raster.Image, cl colorspace.Classifier, p geometry.Point, maxSteps int) (up, down, left, right int) {
	x0, y0 := int(p.X+0.5), int(p.Y+0.5)
	limit := cl.BlackLimit()
	step := func(dx, dy int) int {
		n := 0
		for i := 1; i <= maxSteps; i++ {
			x, y := x0+i*dx, y0+i*dy
			if !img.In(x, y) || !img.Pix[y*img.W+x].Below(limit) {
				break
			}
			n++
		}
		return n
	}
	return step(0, -1), step(0, 1), step(-1, 0), step(1, 0)
}

// RingVotes samples the eight block-neighbor positions around a black
// block center (offsets dx, dy per axis, mean-filtered) and counts the
// classification of each — used to verify corner-tracker ring colors.
func RingVotes(img *raster.Image, cl colorspace.Classifier, p geometry.Point, dx, dy float64) map[colorspace.Color]int {
	votes := RingVoteCounts(img, cl, p, dx, dy)
	counts := make(map[colorspace.Color]int, 5)
	for c, n := range votes {
		if n > 0 {
			counts[colorspace.Color(c)] = n
		}
	}
	return counts
}

// RingVoteCounts is RingVotes returning a fixed-size tally indexed by
// color instead of a freshly allocated map — the allocation-free form the
// per-capture tracker search uses.
func RingVoteCounts(img *raster.Image, cl colorspace.Classifier, p geometry.Point, dx, dy float64) (counts [colorspace.Black + 1]int) {
	for _, off := range [8][2]float64{
		{-1, -1}, {0, -1}, {1, -1},
		{-1, 0}, {1, 0},
		{-1, 1}, {0, 1}, {1, 1},
	} {
		x := int(p.X + off[0]*dx + 0.5)
		y := int(p.Y + off[1]*dy + 0.5)
		if !img.In(x, y) {
			continue
		}
		counts[cl.ClassifyRGB(img.MeanFilterAt(x, y))]++
	}
	return counts
}
