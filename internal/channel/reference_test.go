package channel

import (
	"fmt"
	"math"
	"math/rand"

	"rainbar/internal/colorspace"
	"rainbar/internal/geometry"
	"rainbar/internal/raster"
)

// This file keeps the capture pipeline as it was before the streaming row
// kernel (film.go): whole-frame passes, one after another — warp each
// involved frame, mix rows (the rolling-shutter camera's mixer), Gaussian
// blur, motion blur, the chroma field, the noise draw, the per-pixel
// apply. It is the executable specification the kernel must reproduce bit
// for bit; the identity tests compare the two over generated inputs.

// refScan is a row-plan capture done the whole-frame way: one jitter draw,
// a full warp of every frame the plan shows, the camera's row mixer, then
// the photometric stage.
func refScan(cfg Config, rng *rand.Rand, rows []Row, kernel []float64) (*raster.Image, error) {
	jx := (rng.Float64()*2 - 1) * cfg.JitterPx
	jy := (rng.Float64()*2 - 1) * cfg.JitterPx
	warped := map[*raster.Image]*raster.Image{}
	for _, r := range rows {
		for _, f := range []*raster.Image{r.A, r.B} {
			if f == nil || warped[f] != nil {
				continue
			}
			wf, err := refWarp(cfg, f, jx, jy)
			if err != nil {
				return nil, err
			}
			warped[f] = wf
		}
	}
	var w int
	for _, wf := range warped {
		w = wf.W
	}
	h := len(rows)
	mixed := raster.New(w, h)
	for y, rm := range rows {
		if rm.B == nil {
			continue
		}
		dst := mixed.Pix[y*w : (y+1)*w]
		if rm.A == nil || rm.A == rm.B || rm.Alpha >= 1 {
			copy(dst, warped[rm.B].Pix[y*w:(y+1)*w])
			continue
		}
		rowA := warped[rm.A].Pix[y*w : (y+1)*w]
		rowB := warped[rm.B].Pix[y*w : (y+1)*w]
		for x := 0; x < w; x++ {
			dst[x] = refLerpRGB(rowA[x], rowB[x], rm.Alpha)
		}
	}
	return refPhotometric(cfg, rng, mixed, kernel), nil
}

func refLerpRGB(a, b colorspace.RGB, t float64) colorspace.RGB {
	lerp := func(x, y uint8) uint8 {
		return uint8(float64(x)*(1-t) + float64(y)*t + 0.5)
	}
	return colorspace.RGB{R: lerp(a.R, b.R), G: lerp(a.G, b.G), B: lerp(a.B, b.B)}
}

// refWarp is the geometric stage: perspective + lens distortion + the
// already drawn jitter, onto a black capture-resolution image.
func refWarp(cfg Config, frame *raster.Image, jx, jy float64) (*raster.Image, error) {
	w, h := frame.W, frame.H
	toScreen, err := refMap(cfg, w, h, jx, jy)
	if err != nil {
		return nil, err
	}
	out := raster.New(w, h)
	for y := 0; y < h; y++ {
		orow := out.Pix[y*w : (y+1)*w : (y+1)*w]
		for x := 0; x < w; x++ {
			src := toScreen(x, y)
			if refOffScreen(src, w, h) {
				continue
			}
			orow[x] = frame.Bilinear(src.X, src.Y)
		}
	}
	return out, nil
}

// refMap returns the capture geometry at jitter (jx, jy): capture pixel
// (x, y) through the lens model, then through the inverse perspective view,
// to the screen position it films.
func refMap(cfg Config, w, h int, jx, jy float64) (func(x, y int) geometry.Point, error) {
	hom, err := geometry.PerspectiveView(float64(w), float64(h), cfg.ViewAngleDeg, cfg.scale(), jx, jy)
	if err != nil {
		return nil, fmt.Errorf("channel warp: %w", err)
	}
	inv, err := hom.Inverse()
	if err != nil {
		return nil, fmt.Errorf("channel warp: %w", err)
	}
	lens := geometry.RadialDistortion{
		Center: geometry.Point{X: float64(w) / 2, Y: float64(h) / 2},
		Norm:   math.Hypot(float64(w), float64(h)) / 2,
		K1:     cfg.LensK1,
		K2:     cfg.LensK2,
	}
	return func(x, y int) geometry.Point {
		return inv.Apply(lens.Apply(geometry.Point{X: float64(x), Y: float64(y)}))
	}, nil
}

// refOffScreen reports whether a screen position lies outside a w x h
// screen, where the capture shows the dark surround.
func refOffScreen(src geometry.Point, w, h int) bool {
	return src.X < -1 || src.X > float64(w) || src.Y < -1 || src.Y > float64(h)
}

// refPhotometric is the non-geometric stage: blur (kernel nil: none),
// motion blur, brightness, ambient veil, chroma and per-pixel noise.
func refPhotometric(cfg Config, rng *rand.Rand, img *raster.Image, kernel []float64) *raster.Image {
	out := img.Clone()
	if kernel != nil {
		out = refGaussianBlur(img, kernel)
	}
	if cfg.MotionBlurPx > 1 {
		out = refMotionBlurHorizontal(out, cfg.MotionBlurPx)
	}
	chroma := refChromaField(cfg, rng, out.W, out.H)
	level, contrast := cfg.Ambient.veil()
	bright := cfg.ScreenBrightness
	n := len(out.Pix)
	var noiseBuf []float64
	if cfg.NoiseStdDev > 0 {
		noiseBuf = make([]float64, 3*n)
		sd := cfg.NoiseStdDev
		for i := range noiseBuf {
			noiseBuf[i] = rng.NormFloat64() * sd
		}
	}
	for i := 0; i < n; i++ {
		p := out.Pix[i]
		var cr, cg, cb float64
		if chroma[0] != nil {
			luma := (0.299*float64(p.R) + 0.587*float64(p.G) + 0.114*float64(p.B)) / 255
			gain := 0.15 + 0.85*luma
			cr, cg, cb = chroma[0][i]*gain, chroma[1][i]*gain, chroma[2][i]*gain
		}
		var nr, ng, nb float64
		if noiseBuf != nil {
			nr, ng, nb = noiseBuf[3*i], noiseBuf[3*i+1], noiseBuf[3*i+2]
		}
		out.Pix[i] = colorspace.RGB{
			R: photom(p.R, bright, contrast, level, nr+cr),
			G: photom(p.G, bright, contrast, level, ng+cg),
			B: photom(p.B, bright, contrast, level, nb+cb),
		}
	}
	return out
}

// photom is the per-channel sensor model: brightness, contrast, the
// ambient veil and noise, rounded and clamped to 8 bits.
func photom(v uint8, bright, contrast, ambient, noise float64) uint8 {
	f := float64(v)*bright*contrast + ambient + noise
	if f < 0 {
		return 0
	}
	if f > 255 {
		return 255
	}
	return uint8(f + 0.5)
}

// refChromaField builds the spatially correlated noise planes: coarse
// per-patch Gaussian draws, bilinearly upsampled.
func refChromaField(cfg Config, rng *rand.Rand, w, h int) [3][]float64 {
	var zero [3][]float64
	if cfg.ChromaNoiseStdDev <= 0 {
		return zero
	}
	scale := cfg.ChromaNoiseScalePx
	if scale < 2 {
		scale = 8
	}
	cw, chh := w/scale+2, h/scale+2
	var coarse [3][]float64
	for c := 0; c < 3; c++ {
		coarse[c] = make([]float64, cw*chh)
		for i := range coarse[c] {
			coarse[c][i] = rng.NormFloat64() * cfg.ChromaNoiseStdDev
		}
	}
	var out [3][]float64
	for c := 0; c < 3; c++ {
		out[c] = make([]float64, w*h)
	}
	for y := 0; y < h; y++ {
		fy := float64(y) / float64(scale)
		y0 := int(fy)
		ty := fy - float64(y0)
		for x := 0; x < w; x++ {
			fx := float64(x) / float64(scale)
			x0 := int(fx)
			tx := fx - float64(x0)
			for c := 0; c < 3; c++ {
				v00 := coarse[c][y0*cw+x0]
				v10 := coarse[c][y0*cw+x0+1]
				v01 := coarse[c][(y0+1)*cw+x0]
				v11 := coarse[c][(y0+1)*cw+x0+1]
				top := v00*(1-tx) + v10*tx
				bot := v01*(1-tx) + v11*tx
				out[c][y*w+x] = top*(1-ty) + bot*ty
			}
		}
	}
	return out
}

// refGaussianBlur is the separable blur: a horizontal pass into float
// planes, then a vertical pass. Interior pixels divide by the whole
// kernel's sum, border pixels by the sum of their in-bounds taps.
func refGaussianBlur(img *raster.Image, kernel []float64) *raster.Image {
	half := len(kernel) / 2
	var ksum float64
	for _, kv := range kernel {
		ksum += kv
	}
	w, h := img.W, img.H
	n := w * h
	tmpR := make([]float64, n)
	tmpG := make([]float64, n)
	tmpB := make([]float64, n)
	lo := min(half, w)
	hi := max(w-half, lo)
	for y := 0; y < h; y++ {
		base := y * w
		row := img.Pix[base : base+w : base+w]
		edge := func(x int) {
			var r, g, b, wsum float64
			for k, kv := range kernel {
				sx := x + k - half
				if sx < 0 || sx >= w {
					continue
				}
				p := row[sx]
				r += kv * float64(p.R)
				g += kv * float64(p.G)
				b += kv * float64(p.B)
				wsum += kv
			}
			tmpR[base+x] = r / wsum
			tmpG[base+x] = g / wsum
			tmpB[base+x] = b / wsum
		}
		for x := 0; x < lo; x++ {
			edge(x)
		}
		for x := hi; x < w; x++ {
			edge(x)
		}
		for x := lo; x < hi; x++ {
			var r, g, b float64
			for k, kv := range kernel {
				p := row[x+k-half]
				r += kv * float64(p.R)
				g += kv * float64(p.G)
				b += kv * float64(p.B)
			}
			tmpR[base+x] = r / ksum
			tmpG[base+x] = g / ksum
			tmpB[base+x] = b / ksum
		}
	}
	out := raster.New(w, h)
	for y := 0; y < h; y++ {
		base := y * w
		if y >= half && y < h-half {
			for x := 0; x < w; x++ {
				var r, g, b float64
				for k, kv := range kernel {
					i := (y+k-half)*w + x
					r += kv * tmpR[i]
					g += kv * tmpG[i]
					b += kv * tmpB[i]
				}
				out.Pix[base+x] = colorspace.RGB{
					R: clampRound(r / ksum),
					G: clampRound(g / ksum),
					B: clampRound(b / ksum),
				}
			}
			continue
		}
		for x := 0; x < w; x++ {
			var r, g, b, wsum float64
			for k, kv := range kernel {
				sy := y + k - half
				if sy < 0 || sy >= h {
					continue
				}
				i := sy*w + x
				r += kv * tmpR[i]
				g += kv * tmpG[i]
				b += kv * tmpB[i]
				wsum += kv
			}
			out.Pix[base+x] = colorspace.RGB{
				R: clampRound(r / wsum),
				G: clampRound(g / wsum),
				B: clampRound(b / wsum),
			}
		}
	}
	return out
}

// refMotionBlurHorizontal blurs every row by a horizontal box kernel of
// the given length.
func refMotionBlurHorizontal(img *raster.Image, length int) *raster.Image {
	out := raster.New(img.W, img.H)
	half := length / 2
	w := img.W
	for y := 0; y < img.H; y++ {
		row := img.Pix[y*w : (y+1)*w : (y+1)*w]
		orow := out.Pix[y*w : (y+1)*w : (y+1)*w]
		var r, g, b, n int
		for sx := 0; sx <= half && sx < w; sx++ {
			p := row[sx]
			r += int(p.R)
			g += int(p.G)
			b += int(p.B)
			n++
		}
		for x := 0; x < w; x++ {
			orow[x] = colorspace.RGB{
				R: uint8(r / n), G: uint8(g / n), B: uint8(b / n),
			}
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
	return out
}
