package vision

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"rainbar/internal/colorspace"
	"rainbar/internal/raster"
)

// checkBlobs compares BlackBlobs on img with the reference detector, blob
// by blob and field by field, unexported coordinate sums included.
func checkBlobs(t *testing.T, s *BlobScratch, img *raster.Image, cl colorspace.Classifier, stride int, what string) {
	t.Helper()
	got, gw, gh := s.BlackBlobs(img, cl, stride)
	want, ww, wh := refDetect(img, cl, stride)
	if gw != ww || gh != wh {
		t.Fatalf("%s: grid %dx%d, reference %dx%d", what, gw, gh, ww, wh)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d blobs, reference %d\ngot  %+v\nwant %+v", what, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: blob %d is %+v, reference %+v", what, i, got[i], want[i])
		}
	}
}

// randomPixel returns a pixel that classifies black with probability
// density under cl's limit, with its channel max drawn near the limit half
// the time so the boundary levels are exercised.
func randomPixel(rng *rand.Rand, limit int, density float64) colorspace.RGB {
	var m int
	black := rng.Float64() < density
	switch {
	case black && limit > 0:
		m = limit - 1 - rng.Intn(min(limit, 3))
		if rng.Intn(2) == 0 {
			m = rng.Intn(limit)
		}
	case limit < 256:
		m = limit + rng.Intn(min(256-limit, 3))
		if rng.Intn(2) == 0 {
			m = limit + rng.Intn(256-limit)
		}
	default:
		m = rng.Intn(256)
	}
	ch := [3]uint8{uint8(m), uint8(rng.Intn(m + 1)), uint8(rng.Intn(m + 1))}
	rng.Shuffle(3, func(i, j int) { ch[i], ch[j] = ch[j], ch[i] })
	return colorspace.RGB{R: ch[0], G: ch[1], B: ch[2]}
}

// TestBlackBlobsMatchesReference is the labeler's identity property: over
// generated images of 1-40 px a side at stride 1-3, every black density and
// thresholds from 0 (DefaultTV) past 1, BlackBlobs returns exactly the
// reference's blobs. One scratch serves every case, so state left by a
// larger image must not leak into a smaller one.
func TestBlackBlobsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var s BlobScratch
	n := 6000
	if testing.Short() {
		n = 1000
	}
	for i := 0; i < n; i++ {
		w, h, stride := 1+rng.Intn(40), 1+rng.Intn(40), 1+rng.Intn(3)
		var tv float64
		switch rng.Intn(4) {
		case 0: // DefaultTV
		case 1:
			tv = float64(rng.Intn(256)) / 255
		default:
			tv = rng.Float64() * 1.01
		}
		cl := colorspace.NewClassifier(tv)
		density := rng.Float64()
		img := raster.New(w, h)
		for p := range img.Pix {
			img.Pix[p] = randomPixel(rng, cl.BlackLimit(), density)
		}
		checkBlobs(t, &s, img, cl, stride, "generated")
	}
}

// shapeImage paints a grid drawn as text ('#' black, anything else white)
// at stride, each cell a stride x stride block.
func shapeImage(rows []string, stride int) *raster.Image {
	w := 0
	for _, r := range rows {
		w = max(w, len(r))
	}
	img := raster.New(w*stride, len(rows)*stride)
	img.Fill(colorspace.RGBWhite)
	for y, r := range rows {
		for x, c := range r {
			if c == '#' {
				img.FillRect(x*stride, y*stride, stride, stride, colorspace.RGBBlack)
			}
		}
	}
	return img
}

// spiral draws a square spiral path n cells a side, its arms one cell
// apart: segments of n-1, n-1, n-1, n-3, n-3, n-5, n-5, ... cells turning
// clockwise from the top-left corner.
func spiral(n int) []string {
	g := make([][]byte, n)
	for i := range g {
		g[i] = []byte(strings.Repeat(".", n))
	}
	segs := []int{n - 1, n - 1, n - 1}
	for l := n - 3; l > 0; l -= 2 {
		segs = append(segs, l, l)
	}
	dirs := [4][2]int{{1, 0}, {0, 1}, {-1, 0}, {0, -1}}
	x, y := 0, 0
	g[0][0] = '#'
	for i, l := range segs {
		d := dirs[i%4]
		for ; l > 0; l-- {
			x, y = x+d[0], y+d[1]
			g[y][x] = '#'
		}
	}
	out := make([]string, n)
	for i := range g {
		out[i] = string(g[i])
	}
	return out
}

// TestBlackBlobsNamedShapes pins the shapes a run labeler gets wrong first:
// single-column and single-row grids, chains connected only through
// corners, U-shapes whose arms meet only at the bottom (the later arm's
// root must be re-rooted under the earlier one, whichever arm starts
// higher), combs, spirals and all-black grids.
func TestBlackBlobsNamedShapes(t *testing.T) {
	shapes := map[string][]string{
		"one column":    {"#", "#", ".", "#", ".", ".", "#", "#", "#"},
		"one row":       {"##.#..###.#"},
		"one cell":      {"#"},
		"diagonal":      {"#....", ".#...", "..#..", "...#.", "....#"},
		"antidiagonal":  {"....#", "...#.", "..#..", ".#...", "#...."},
		"zigzag":        {"#.#.#.#", ".#.#.#.", "#.#.#.#"},
		"diagonal pair": {"#..#", ".##.", ".##.", "#..#"},
		"U":             {"#...#", "#...#", "#...#", "#####"},
		"U right first": {"....#", "#...#", "#...#", "#####"},
		"U left first":  {"#....", "#...#", "#...#", "#####"},
		"U diagonal":    {"#.....#", ".#...#.", "..#.#..", "...#..."},
		"comb":          {"#.#.#.#.#", "#.#.#.#.#", "#########"},
		"late bridge":   {"#.#.#", "#.#.#", "#.#.#", "#...#", "#####"},
		"double U":      {"#.#...#.#", "#.#...#.#", "#.#####.#", "#.......#", "#########"},
		"spiral 9":      spiral(9),
		"spiral 16":     spiral(16),
		"all black":     {"######", "######", "######"},
		"all white":     {"......", "......"},
		"checker":       {"#.#.", ".#.#", "#.#.", ".#.#"},
		"staircase":     {"##....", ".##...", "..##..", "...##.", "....##"},
	}
	var s BlobScratch
	cl := colorspace.NewClassifier(0.3)
	for name, rows := range shapes {
		for stride := 1; stride <= 3; stride++ {
			checkBlobs(t, &s, shapeImage(rows, stride), cl, stride, name)
		}
	}
	// A white image at the threshold extremes: no pixel is black when T_v
	// is negative or NaN, every pixel when T_v is above one.
	img := raster.New(7, 5)
	img.Fill(colorspace.RGB{R: 255, G: 255, B: 255})
	for _, tv := range []float64{-1, 1.01, math.NaN()} {
		checkBlobs(t, &s, img, colorspace.NewClassifier(tv), 1, "extreme threshold")
	}
	// A spiral whose one component stays open until its last row.
	if blobs, _, _ := s.BlackBlobs(shapeImage(spiral(16), 1), cl, 1); len(blobs) != 1 {
		t.Fatalf("spiral labeled as %d blobs, want 1", len(blobs))
	}
}

// FuzzBlackBlobs drives BlackBlobs and the reference with arbitrary pixels:
// w and h are taken mod 40 (plus one), stride mod 3 (plus one), and the
// pixel bytes are cycled to fill the image. The checked-in corpus
// (testdata/fuzz/FuzzBlackBlobs) holds checkerboards, channel maxima at
// the threshold edge, a surround with gaps, one-column and one-row grids,
// and negative, zero and above-one thresholds.
func FuzzBlackBlobs(f *testing.F) {
	f.Add(uint8(12), uint8(9), uint8(1), 0.35, []byte{0, 0, 0, 255, 255, 255, 40, 90, 10})
	f.Add(uint8(39), uint8(0), uint8(2), 0.0, []byte{1, 2, 3})
	f.Add(uint8(5), uint8(5), uint8(0), 1.01, []byte{255})
	f.Add(uint8(20), uint8(20), uint8(1), math.NaN(), []byte{0, 0, 0})
	var s BlobScratch
	f.Fuzz(func(t *testing.T, w, h, stride uint8, tv float64, pix []byte) {
		if len(pix) == 0 {
			pix = []byte{0}
		}
		img := raster.New(1+int(w)%40, 1+int(h)%40)
		for i := range img.Pix {
			j := 3 * i
			img.Pix[i] = colorspace.RGB{R: pix[j%len(pix)], G: pix[(j+1)%len(pix)], B: pix[(j+2)%len(pix)]}
		}
		checkBlobs(t, &s, img, colorspace.NewClassifier(tv), 1+int(stride)%3, "fuzz")
	})
}
