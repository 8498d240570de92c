package vision

import (
	"testing"

	"rainbar/internal/colorspace"
	"rainbar/internal/geometry"
	"rainbar/internal/raster"
)

// paint draws a block of the given color.
func paint(img *raster.Image, x, y, size int, c colorspace.Color) {
	img.FillRect(x, y, size, size, colorspace.Paint(c))
}

func classifier() colorspace.Classifier { return colorspace.NewClassifier(0.3) }

// blackBlobs labels img at stride 2 with a fresh scratch.
func blackBlobs(img *raster.Image) []Blob {
	var s BlobScratch
	blobs, _, _ := s.BlackBlobs(img, classifier(), 2)
	return blobs
}

func TestBlackBlobsGridDimensions(t *testing.T) {
	img := raster.New(65, 49) // all black; the odd last column and row are not sampled
	var s BlobScratch
	blobs, mw, mh := s.BlackBlobs(img, classifier(), 2)
	if mw != 32 || mh != 24 {
		t.Fatalf("grid %dx%d, want 32x24", mw, mh)
	}
	if len(blobs) != 1 || blobs[0].Size != 32*24 || blobs[0].Width() != 32 || blobs[0].Height() != 24 {
		t.Fatalf("all-black image labeled %+v, want one 32x24 blob", blobs)
	}
}

func TestBlackBlobsFindsIsolatedBlocks(t *testing.T) {
	img := raster.New(100, 100)
	img.Fill(colorspace.RGBWhite)
	paint(img, 10, 10, 8, colorspace.Black)
	paint(img, 50, 60, 8, colorspace.Black)
	blobs := blackBlobs(img)
	if len(blobs) != 2 {
		t.Fatalf("%d blobs, want 2", len(blobs))
	}
	for _, b := range blobs {
		if b.Width() != 4 || b.Height() != 4 {
			t.Errorf("blob %dx%d, want 4x4 (8px at stride 2)", b.Width(), b.Height())
		}
	}
}

func TestBlackBlobsMergesDiagonal(t *testing.T) {
	// 8-connectivity: two diagonal-touching blocks form one blob.
	img := raster.New(40, 40)
	img.Fill(colorspace.RGBWhite)
	paint(img, 10, 10, 6, colorspace.Black)
	paint(img, 16, 16, 6, colorspace.Black)
	if blobs := blackBlobs(img); len(blobs) != 1 {
		t.Fatalf("%d blobs, want 1 (diagonal connectivity)", len(blobs))
	}
}

func TestBlackBlobsDropsSingleCells(t *testing.T) {
	img := raster.New(40, 40)
	img.Fill(colorspace.RGBWhite)
	img.Set(20, 20, colorspace.RGBBlack) // one pixel -> one grid cell at most
	if blobs := blackBlobs(img); len(blobs) != 0 {
		t.Fatalf("%d blobs from single-pixel noise, want 0", len(blobs))
	}
}

func TestBlobCentroid(t *testing.T) {
	img := raster.New(60, 60)
	img.Fill(colorspace.RGBWhite)
	paint(img, 20, 30, 10, colorspace.Black) // block spans grid x 10..14, y 15..19
	blobs := blackBlobs(img)
	if len(blobs) != 1 {
		t.Fatalf("%d blobs", len(blobs))
	}
	cx, cy := blobs[0].Centroid()
	if cx < 11.5 || cx > 12.5 || cy < 16.5 || cy > 17.5 {
		t.Errorf("centroid (%.1f, %.1f), want ≈(12, 17)", cx, cy)
	}
}

func TestKMeansCorrectConvergesToBlockCenter(t *testing.T) {
	img := raster.New(60, 60)
	img.Fill(colorspace.RGBWhite)
	paint(img, 24, 24, 12, colorspace.Black) // center (30, 30)
	// Start offset by a third of a block.
	got, found := KMeansCorrect(img, classifier(), geometry.Point{X: 26, Y: 34}, 13)
	if !found {
		t.Fatal("block not found")
	}
	if got.Dist(geometry.Point{X: 29.5, Y: 29.5}) > 1.2 {
		t.Fatalf("converged to (%.1f, %.1f), want ≈(29.5, 29.5)", got.X, got.Y)
	}
}

func TestKMeansCorrectNoBlackReturnsInput(t *testing.T) {
	img := raster.New(30, 30)
	img.Fill(colorspace.RGBWhite)
	p := geometry.Point{X: 15, Y: 15}
	got, found := KMeansCorrect(img, classifier(), p, 8)
	if found {
		t.Fatal("reported found with no black pixels")
	}
	if got != p {
		t.Fatalf("moved to %v with no black pixels", got)
	}
}

func TestKMeansCorrectTinyWindowClamped(t *testing.T) {
	img := raster.New(30, 30)
	img.Fill(colorspace.RGBWhite)
	paint(img, 14, 14, 4, colorspace.Black)
	// Edge below the minimum must still work (clamped internally).
	got, _ := KMeansCorrect(img, classifier(), geometry.Point{X: 15, Y: 15}, 0.5)
	if got.Dist(geometry.Point{X: 15.5, Y: 15.5}) > 1.5 {
		t.Fatalf("got %v", got)
	}
}

func TestBlackExtent(t *testing.T) {
	img := raster.New(60, 60)
	img.Fill(colorspace.RGBWhite)
	paint(img, 20, 20, 10, colorspace.Black)
	up, down, left, right := BlackExtent(img, classifier(), geometry.Point{X: 24, Y: 24}, 20)
	// From (24,24) inside the 20..29 block.
	if up != 4 || left != 4 {
		t.Errorf("up=%d left=%d, want 4", up, left)
	}
	if down != 5 || right != 5 {
		t.Errorf("down=%d right=%d, want 5", down, right)
	}
}

func TestBlackExtentRespectsMaxSteps(t *testing.T) {
	img := raster.New(60, 60) // all black
	up, down, left, right := BlackExtent(img, classifier(), geometry.Point{X: 30, Y: 30}, 7)
	for _, v := range []int{up, down, left, right} {
		if v != 7 {
			t.Fatalf("extent %d, want capped at 7", v)
		}
	}
}

func TestRingVotesOnRing(t *testing.T) {
	img := raster.New(90, 90)
	img.Fill(colorspace.RGBWhite)
	// 3x3 blocks of 10px: green ring, black center at (40..49, 40..49).
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			c := colorspace.Green
			if dx == 0 && dy == 0 {
				c = colorspace.Black
			}
			paint(img, 40+dx*10, 40+dy*10, 10, c)
		}
	}
	votes := RingVotes(img, classifier(), geometry.Point{X: 44.5, Y: 44.5}, 10, 10)
	if votes[colorspace.Green] != 8 {
		t.Fatalf("green votes = %d, want 8 (%v)", votes[colorspace.Green], votes)
	}
}

func TestRingVotesOffImage(t *testing.T) {
	img := raster.New(20, 20)
	votes := RingVotes(img, classifier(), geometry.Point{X: 0, Y: 0}, 30, 30)
	total := 0
	for _, n := range votes {
		total += n
	}
	if total > 3 {
		t.Fatalf("%d in-bounds ring samples at the corner, want <= 3", total)
	}
}
