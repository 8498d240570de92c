// Package raster provides the pure-Go image substrate RainBar runs on: a
// packed RGB frame buffer with block drawing for the encoder and the
// sampling/filtering primitives the decoder and the channel simulator
// need (3x3 mean filter, bilinear sampling, gradient sharpness for blur
// assessment). It replaces the OpenCV-style dependencies the original
// smartphone implementation would have used.
package raster

import (
	"fmt"
	"image"
	"image/png"
	"io"
	"math"
	"os"
	"sync"

	"rainbar/internal/colorspace"
)

// imagePool recycles pixel buffers between simulated captures. Buffers
// enter the pool via Recycle and are reused by New / newUncleared when
// large enough.
var imagePool sync.Pool

// newUncleared returns a w x h image whose pixels are NOT initialized.
// Only producers that overwrite every pixel (clone, rotation) may use it;
// everything else goes through New.
func newUncleared(w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("raster: invalid dimensions %dx%d", w, h))
	}
	n := w * h
	if v, ok := imagePool.Get().(*Image); ok && cap(v.Pix) >= n {
		v.W, v.H, v.Pix = w, h, v.Pix[:n]
		return v
	}
	return &Image{W: w, H: h, Pix: make([]colorspace.RGB, n)}
}

// Recycle returns img's pixel storage to the allocation pool; the caller
// must not touch img afterwards. Recycling is optional — images are
// ordinary garbage-collected values — but the capture pipeline recycles
// its per-frame intermediates to keep allocation churn off the hot path.
func Recycle(img *Image) {
	if img == nil || img.Pix == nil {
		return
	}
	imagePool.Put(img)
}

// Image is a W x H RGB frame buffer with rows stored contiguously.
// The zero value is an empty image; use New to allocate.
type Image struct {
	W, H int
	Pix  []colorspace.RGB // len == W*H, row-major
}

// New allocates a black W x H image. It panics on non-positive dimensions
// (a programming error, not a data error).
func New(w, h int) *Image {
	img := newUncleared(w, h)
	clear(img.Pix)
	return img
}

// Clone returns a deep copy of img.
func (img *Image) Clone() *Image {
	if img.W <= 0 || img.H <= 0 {
		return &Image{W: img.W, H: img.H, Pix: make([]colorspace.RGB, len(img.Pix))}
	}
	out := newUncleared(img.W, img.H)
	copy(out.Pix, img.Pix)
	return out
}

// In reports whether (x, y) lies inside the image.
func (img *Image) In(x, y int) bool {
	return x >= 0 && x < img.W && y >= 0 && y < img.H
}

// At returns the pixel at (x, y). Out-of-bounds reads return black, which
// models the dark surround of a captured screen.
func (img *Image) At(x, y int) colorspace.RGB {
	if !img.In(x, y) {
		return colorspace.RGBBlack
	}
	return img.Pix[y*img.W+x]
}

// Set writes the pixel at (x, y); out-of-bounds writes are ignored.
func (img *Image) Set(x, y int, c colorspace.RGB) {
	if img.In(x, y) {
		img.Pix[y*img.W+x] = c
	}
}

// Fill paints the whole image with c.
func (img *Image) Fill(c colorspace.RGB) {
	for i := range img.Pix {
		img.Pix[i] = c
	}
}

// FillRect paints the axis-aligned rectangle [x0,x0+w) x [y0,y0+h),
// clipped to the image.
func (img *Image) FillRect(x0, y0, w, h int, c colorspace.RGB) {
	for y := max(y0, 0); y < min(y0+h, img.H); y++ {
		row := img.Pix[y*img.W : (y+1)*img.W]
		for x := max(x0, 0); x < min(x0+w, img.W); x++ {
			row[x] = c
		}
	}
}

// Rotate180 returns a copy rotated by half a turn — the orientation a
// captured screen has when one phone is held upside down.
func (img *Image) Rotate180() *Image {
	out := newUncleared(img.W, img.H)
	n := len(img.Pix)
	for i, p := range img.Pix {
		out.Pix[n-1-i] = p
	}
	return out
}

// Bilinear samples the image at a fractional position with bilinear
// interpolation. Samples outside the image blend toward black.
func (img *Image) Bilinear(x, y float64) colorspace.RGB {
	x0 := int(math.Floor(x))
	y0 := int(math.Floor(y))
	fx := x - float64(x0)
	fy := y - float64(y0)

	var c00, c10, c01, c11 colorspace.RGB
	if x0 >= 0 && y0 >= 0 && x0+1 < img.W && y0+1 < img.H {
		// Interior: both sample rows are in bounds, skip the four
		// per-corner bounds checks of the At path.
		i := y0*img.W + x0
		c00, c10 = img.Pix[i], img.Pix[i+1]
		c01, c11 = img.Pix[i+img.W], img.Pix[i+img.W+1]
		if c00 == c10 && c00 == c01 && c00 == c11 {
			// Four equal corners interpolate to within a few ulps of
			// their own value, which the rounding below (or the clamp at
			// 0 and 255) maps back exactly.
			return c00
		}
	} else {
		c00 = img.At(x0, y0)
		c10 = img.At(x0+1, y0)
		c01 = img.At(x0, y0+1)
		c11 = img.At(x0+1, y0+1)
	}

	lerp2 := func(a, b, c, d uint8) uint8 {
		top := float64(a)*(1-fx) + float64(b)*fx
		bot := float64(c)*(1-fx) + float64(d)*fx
		v := top*(1-fy) + bot*fy
		if v < 0 {
			return 0
		}
		if v > 255 {
			return 255
		}
		return uint8(v + 0.5)
	}
	return colorspace.RGB{
		R: lerp2(c00.R, c10.R, c01.R, c11.R),
		G: lerp2(c00.G, c10.G, c01.G, c11.G),
		B: lerp2(c00.B, c10.B, c01.B, c11.B),
	}
}

// MeanFilterAt returns the 3x3 mean-filtered value at (x, y) — the block
// denoising step of §III-F. Border pixels average their in-bounds
// neighborhood only.
func (img *Image) MeanFilterAt(x, y int) colorspace.RGB {
	var r, g, b, n int
	if x >= 1 && y >= 1 && x < img.W-1 && y < img.H-1 {
		// Interior: all nine neighbors are in bounds.
		for dy := -1; dy <= 1; dy++ {
			row := img.Pix[(y+dy)*img.W+x-1 : (y+dy)*img.W+x+2]
			for _, p := range row {
				r += int(p.R)
				g += int(p.G)
				b += int(p.B)
			}
		}
		n = 9
	} else {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if !img.In(x+dx, y+dy) {
					continue
				}
				p := img.Pix[(y+dy)*img.W+(x+dx)]
				r += int(p.R)
				g += int(p.G)
				b += int(p.B)
				n++
			}
		}
		if n == 0 {
			return colorspace.RGBBlack
		}
	}
	return colorspace.RGB{
		R: uint8((r + n/2) / n),
		G: uint8((g + n/2) / n),
		B: uint8((b + n/2) / n),
	}
}

// Sharpness returns a scalar focus metric: the mean squared horizontal and
// vertical luminance gradient. COBRA's blur assessment (§III-D) selects,
// among captures of the same frame, the one with the highest sharpness.
//
// One serial pass scores sharpRows output rows at a time, computing the
// luma of the pixel rows below them inline. Each row keeps its own
// accumulator, advanced in x order, and the row sums are added in row
// order, so the result is bit-identical to scoring one row at a time.
// Only the luma of a block's last row carries over to the next block, in
// buf's first 2·W elements: a caller that keeps buf calls without
// allocating. A shorter buf (nil included) is replaced by a fresh one.
func (img *Image) Sharpness(buf []float64) float64 {
	w, h := img.W, img.H
	if w < 2 || h < 2 {
		return 0
	}
	// The carried luma row starts at scratch[off]; the next one is written
	// to the other half.
	scratch := buf
	if len(scratch) < 2*w {
		scratch = make([]float64, 2*w)
	}
	off := 0
	for x, p := range img.Pix[:w] {
		scratch[x] = luma(p)
	}
	var total float64
	y := 0
	for ; y+sharpRows < h; y += sharpRows {
		// Output rows y..y+3 read pixel rows y+1..y+4; row y's luma is top.
		top, next := scratch[off:off+w], scratch[w-off:][:w]
		r1 := img.Pix[(y+1)*w : (y+2)*w]
		r2 := img.Pix[(y+2)*w : (y+3)*w]
		r3 := img.Pix[(y+3)*w : (y+4)*w]
		r4 := img.Pix[(y+4)*w : (y+5)*w]
		l0, l1, l2, l3, l4 := top[0], luma(r1[0]), luma(r2[0]), luma(r3[0]), luma(r4[0])
		next[0] = l4
		var s0, s1, s2, s3 float64
		for x := 1; x < w; x++ {
			n0, n1, n2, n3, n4 := top[x], luma(r1[x]), luma(r2[x]), luma(r3[x]), luma(r4[x])
			next[x] = n4
			gx, gy := n0-l0, l1-l0
			s0 += gx*gx + gy*gy
			gx, gy = n1-l1, l2-l1
			s1 += gx*gx + gy*gy
			gx, gy = n2-l2, l3-l2
			s2 += gx*gx + gy*gy
			gx, gy = n3-l3, l4-l3
			s3 += gx*gx + gy*gy
			l0, l1, l2, l3, l4 = n0, n1, n2, n3, n4
		}
		total += s0
		total += s1
		total += s2
		total += s3
		off = w - off
	}
	// The (h-1) mod sharpRows rows left over run one at a time.
	for ; y+1 < h; y++ {
		top, next := scratch[off:off+w], scratch[w-off:][:w]
		below := img.Pix[(y+1)*w : (y+2)*w]
		l0, l1 := top[0], luma(below[0])
		next[0] = l1
		var s float64
		for x := 1; x < w; x++ {
			n0, n1 := top[x], luma(below[x])
			next[x] = n1
			gx, gy := n0-l0, l1-l0
			s += gx*gx + gy*gy
			l0, l1 = n0, n1
		}
		total += s
		off = w - off
	}
	return total / float64((w-1)*(h-1))
}

// sharpRows is the number of output rows one Sharpness pass scores.
const sharpRows = 4

// lumaR/lumaG/lumaB cache the per-channel Rec. 601 terms. The sum
// (lumaR[r]+lumaG[g])+lumaB[b] reproduces the left-associated expression
// 0.299*r + 0.587*g + 0.114*b bit-for-bit.
var lumaR, lumaG, lumaB [256]float64

func init() {
	for k := 0; k < 256; k++ {
		lumaR[k] = 0.299 * float64(k)
		lumaG[k] = 0.587 * float64(k)
		lumaB[k] = 0.114 * float64(k)
	}
}

// luma is the Rec. 601 luminance of a pixel, the gradient basis for
// Sharpness.
func luma(p colorspace.RGB) float64 {
	return (lumaR[p.R] + lumaG[p.G]) + lumaB[p.B]
}

// ToStdImage converts to an image.RGBA from the standard library.
func (img *Image) ToStdImage() *image.RGBA {
	out := image.NewRGBA(image.Rect(0, 0, img.W, img.H))
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			p := img.Pix[y*img.W+x]
			i := out.PixOffset(x, y)
			out.Pix[i+0] = p.R
			out.Pix[i+1] = p.G
			out.Pix[i+2] = p.B
			out.Pix[i+3] = 0xFF
		}
	}
	return out
}

// FromStdImage converts any standard-library image to an Image.
func FromStdImage(src image.Image) *Image {
	b := src.Bounds()
	out := New(b.Dx(), b.Dy())
	for y := 0; y < b.Dy(); y++ {
		for x := 0; x < b.Dx(); x++ {
			r, g, bb, _ := src.At(b.Min.X+x, b.Min.Y+y).RGBA()
			out.Pix[y*out.W+x] = colorspace.RGB{
				R: uint8(r >> 8), G: uint8(g >> 8), B: uint8(bb >> 8),
			}
		}
	}
	return out
}

// EncodePNG writes the image as PNG.
func (img *Image) EncodePNG(w io.Writer) error {
	return png.Encode(w, img.ToStdImage())
}

// WritePNGFile writes the image to a PNG file at path.
func (img *Image) WritePNGFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write png: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("write png: %w", cerr)
		}
	}()
	return img.EncodePNG(f)
}

// ReadPNGFile loads a PNG file into an Image.
func ReadPNGFile(path string) (*Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("read png: %w", err)
	}
	defer f.Close()
	src, err := png.Decode(f)
	if err != nil {
		return nil, fmt.Errorf("read png: %w", err)
	}
	return FromStdImage(src), nil
}
