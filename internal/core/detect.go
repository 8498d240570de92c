package core

import (
	"fmt"

	"rainbar/internal/colorspace"
	"rainbar/internal/geometry"
	"rainbar/internal/raster"
	"rainbar/internal/vision"
)

// detection holds the capture-space fix of a frame: the two corner-tracker
// centers, the estimated block size in capture pixels, and the adaptive
// value threshold for black/non-black separation.
type detection struct {
	ctLeft  geometry.Point
	ctRight geometry.Point
	bst     float64 // estimated block side in capture pixels
	tv      float64 // adaptive value threshold (Eq. 2)

	// vb, vo are the black / non-black cluster means behind tv, kept so
	// the recovery ladder's μ-sweep can re-derive T_v under alternative μ
	// without re-clustering; tvOK is false when the estimate fell back to
	// DefaultTV (no bimodality — nothing for the sweep to re-weigh).
	vb, vo float64
	tvOK   bool
}

// tvSamplesPerRegion is N in §III-F: pixels sampled per screen quadrant
// when estimating T_v.
const tvSamplesPerRegion = 64

// estimateTV implements the paper's brightness assessment: divide the
// capture into four regions, sample N pixels per region, and combine the
// black and non-black mean values with μ (Eq. 2). sc supplies the sample
// buffer.
func estimateTV(img *raster.Image, sc *decodeScratch) (tv, vb, vo float64, ok bool) {
	values := grow(sc.tvValues, 4*tvSamplesPerRegion)[:0]
	halfW, halfH := img.W/2, img.H/2
	regions := [4][2]int{{0, 0}, {halfW, 0}, {0, halfH}, {halfW, halfH}}
	// Deterministic low-discrepancy sampling: an 8x8 lattice per region.
	const side = 8
	for _, reg := range regions {
		for sy := 0; sy < side; sy++ {
			for sx := 0; sx < side; sx++ {
				x := reg[0] + (2*sx+1)*halfW/(2*side)
				y := reg[1] + (2*sy+1)*halfH/(2*side)
				// Value() is ToHSV().V without the rest of the conversion
				// (bit-identical).
				values = append(values, img.At(x, y).Value())
			}
		}
	}
	sc.tvValues = values
	vb, vo, ok = colorspace.EstimateTVClusters(values)
	if !ok {
		return colorspace.DefaultTV, 0, 0, false
	}
	return colorspace.TVForMu(vb, vo, colorspace.Mu), vb, vo, true
}

// detectDownsample is the stride of the pixel grid labeled for black blobs
// in corner-tracker detection; the paper's "fast corner detection"
// similarly avoids touching every pixel.
const detectDownsample = 2

// detect runs brightness assessment and corner-tracker detection on a
// capture. It returns ErrNoCornerTrackers when either tracker is missing
// or their mutual position is implausible. The returned detection is
// scratch-owned.
func (c *Codec) detect(img *raster.Image, sc *decodeScratch) (*detection, error) {
	tv, vb, vo, tvOK := estimateTV(img, sc)
	cl := colorspace.NewClassifier(tv)

	if img.W < 8 || img.H < 8 {
		return nil, fmt.Errorf("core detect: capture %dx%d too small", img.W, img.H)
	}
	blobs, mw, mh := sc.blobs.BlackBlobs(img, cl, detectDownsample)

	left, right, err := findTrackers(img, blobs, mw, mh, cl)
	if err != nil {
		return nil, err
	}

	// Block size estimate: the trackers sit a known number of blocks
	// apart, so their distance calibrates BST far more accurately than a
	// single ring's extent.
	g := c.cfg.Geometry
	blocksApart := float64(g.CTRightCenter().Col - g.CTLeftCenter().Col)
	bst := left.Dist(right) / blocksApart
	if bst < 2 {
		return nil, fmt.Errorf("%w: implausible block size %.2f px", ErrNoCornerTrackers, bst)
	}
	sc.det = detection{ctLeft: left, ctRight: right, bst: bst, tv: tv, vb: vb, vo: vo, tvOK: tvOK}
	return &sc.det, nil
}

// findTrackers locates both corner trackers among the black blobs of the
// sampled grid (each a single block: a locator or a CT center) by
// verifying each blob's 8-neighbor ring: a blob whose eight surrounding
// blocks are (almost) all green is the left tracker, all red the right
// one. Among multiple candidates the strongest ring vote wins. The
// returned points are K-means-refined centers of the black blocks.
func findTrackers(img *raster.Image, blobs []vision.Blob, mw, mh int, cl colorspace.Classifier) (left, right geometry.Point, err error) {
	type candidate struct {
		center geometry.Point
		votes  int
	}
	var bestL, bestR candidate

	for i := range blobs {
		b := &blobs[i]
		w, h := b.Width(), b.Height()
		// Single-block blobs only: squarish, not the screen surround
		// (which spans a large fraction of the grid). Width/height may
		// shrink to one grid cell when blur erodes a distant block, so the
		// lower bound stays permissive — the ring vote rejects impostors.
		if w < 1 || h < 1 || w > mw/4 || h > mh/4 {
			continue
		}
		aspect := float64(w) / float64(h)
		if aspect < 0.3 || aspect > 3.4 {
			continue
		}
		fill := float64(b.Size) / float64(w*h)
		if fill < 0.5 {
			continue
		}
		cx, cy := b.Centroid()
		px := geometry.Point{X: cx * detectDownsample, Y: cy * detectDownsample}
		// Blur erodes the classified black region, so the blob extent may
		// underestimate the true block size; probe the ring at a few
		// radii and keep the strongest vote.
		base := float64(max(w, h) * detectDownsample)
		// 6 of 8 ring samples: strict enough that a data block almost
		// never qualifies, loose enough to survive two eroded ring cells.
		// A stray 6-vote data block loses to the true 8-vote tracker, and
		// the pair sanity check below rejects the rest.
		const needed = 6
		for _, mult := range [...]float64{1.05, 1.5, 2.0} {
			dx, dy := base*mult, base*mult
			votes := vision.RingVoteCounts(img, cl, px, dx, dy)
			if g := votes[colorspace.Green]; g >= needed && g > bestL.votes {
				center, _ := vision.KMeansCorrect(img, cl, px, dx)
				bestL = candidate{center: center, votes: g}
			}
			if r := votes[colorspace.Red]; r >= needed && r > bestR.votes {
				center, _ := vision.KMeansCorrect(img, cl, px, dx)
				bestR = candidate{center: center, votes: r}
			}
		}
	}

	if bestL.votes == 0 {
		return geometry.Point{}, geometry.Point{}, fmt.Errorf("%w: left (green ring) not found among %d black blobs", ErrNoCornerTrackers, len(blobs))
	}
	if bestR.votes == 0 {
		return geometry.Point{}, geometry.Point{}, fmt.Errorf("%w: right (red ring) not found among %d black blobs", ErrNoCornerTrackers, len(blobs))
	}
	if bestL.center.X >= bestR.center.X {
		return geometry.Point{}, geometry.Point{}, fmt.Errorf("%w: green tracker not left of red tracker", ErrNoCornerTrackers)
	}
	// Both trackers sit on the same grid row, so even under strong
	// perspective their vertical offset stays a small fraction of their
	// horizontal separation.
	if dy := bestL.center.Y - bestR.center.Y; dy > 0.25*(bestR.center.X-bestL.center.X)+3 || -dy > 0.25*(bestR.center.X-bestL.center.X)+3 {
		return geometry.Point{}, geometry.Point{}, fmt.Errorf("%w: tracker pair misaligned", ErrNoCornerTrackers)
	}
	return bestL.center, bestR.center, nil
}
