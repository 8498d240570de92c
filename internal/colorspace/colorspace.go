// Package colorspace provides the color machinery RainBar's decoder relies
// on (paper §III-F): RGB to HSV conversion and the five-color HSV
// classifier with the paper's thresholds — hue sector boundaries at
// 60°/180°/300°, a fixed saturation threshold T_sat = 0.41, and a per-frame
// adaptive value threshold T_v = μ·V_b + (1-μ)·V_o with μ = 0.55 (Eq. 2).
package colorspace

import (
	"math"
	"sort"
)

// Color is one of the five colors a RainBar block can take. Data blocks use
// White/Red/Green/Blue (2 bits each); Black is structural (corner-tracker
// centers and code locators).
type Color uint8

// The five block colors. The numeric values of White..Blue are exactly the
// 2-bit symbols they encode (paper §III-A: white=00, red=01, green=10,
// blue=11), which also orders the tracking-bar color cycle.
const (
	White Color = 0
	Red   Color = 1
	Green Color = 2
	Blue  Color = 3
	Black Color = 4
)

// NumDataColors is the size of the data alphabet (Black excluded).
const NumDataColors = 4

// BitsPerBlock is the number of payload bits a single data block carries.
const BitsPerBlock = 2

// String returns the lowercase color name.
func (c Color) String() string {
	switch c {
	case White:
		return "white"
	case Red:
		return "red"
	case Green:
		return "green"
	case Blue:
		return "blue"
	case Black:
		return "black"
	default:
		return "invalid"
	}
}

// IsData reports whether c is one of the four data-carrying colors.
func (c Color) IsData() bool { return c < NumDataColors }

// Bits returns the 2-bit symbol for a data color. It panics on Black or an
// invalid color; callers must check IsData first.
func (c Color) Bits() byte {
	if !c.IsData() {
		panic("colorspace: Bits on non-data color " + c.String())
	}
	return byte(c)
}

// FromBits returns the data color for a 2-bit symbol (only the low 2 bits
// of b are used).
func FromBits(b byte) Color { return Color(b & 0x3) }

// RGB is an 8-bit-per-channel color sample.
type RGB struct {
	R, G, B uint8
}

// Reference RGB values the encoder paints blocks with (full-brightness
// screen). The channel simulator then perturbs them.
var (
	RGBWhite = RGB{255, 255, 255}
	RGBRed   = RGB{255, 0, 0}
	RGBGreen = RGB{0, 255, 0}
	RGBBlue  = RGB{0, 0, 255}
	RGBBlack = RGB{0, 0, 0}
)

// Paint returns the reference RGB for any of the five colors.
func Paint(c Color) RGB {
	switch c {
	case White:
		return RGBWhite
	case Red:
		return RGBRed
	case Green:
		return RGBGreen
	case Blue:
		return RGBBlue
	default:
		return RGBBlack
	}
}

// HSV is a color in hue-saturation-value space. Hue is in degrees [0, 360);
// saturation and value are normalized to [0, 1].
type HSV struct {
	H, S, V float64
}

// ToHSV converts an RGB sample to HSV.
func (c RGB) ToHSV() HSV {
	r := float64(c.R) / 255
	g := float64(c.G) / 255
	b := float64(c.B) / 255
	max := math.Max(r, math.Max(g, b))
	min := math.Min(r, math.Min(g, b))
	delta := max - min

	var h float64
	switch {
	case delta == 0:
		h = 0
	case max == r:
		h = 60 * math.Mod((g-b)/delta, 6)
	case max == g:
		h = 60 * ((b-r)/delta + 2)
	default: // max == b
		h = 60 * ((r-g)/delta + 4)
	}
	if h < 0 {
		h += 360
	}

	var s float64
	if max > 0 {
		s = delta / max
	}
	return HSV{H: h, S: s, V: max}
}

// ToRGB converts an HSV color back to RGB.
func (c HSV) ToRGB() RGB {
	h := math.Mod(c.H, 360)
	if h < 0 {
		h += 360
	}
	chroma := c.V * c.S
	hp := h / 60
	x := chroma * (1 - math.Abs(math.Mod(hp, 2)-1))
	var r, g, b float64
	switch {
	case hp < 1:
		r, g, b = chroma, x, 0
	case hp < 2:
		r, g, b = x, chroma, 0
	case hp < 3:
		r, g, b = 0, chroma, x
	case hp < 4:
		r, g, b = 0, x, chroma
	case hp < 5:
		r, g, b = x, 0, chroma
	default:
		r, g, b = chroma, 0, x
	}
	m := c.V - chroma
	return RGB{
		R: clamp8((r + m) * 255),
		G: clamp8((g + m) * 255),
		B: clamp8((b + m) * 255),
	}
}

func clamp8(v float64) uint8 {
	v = math.Round(v)
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// Thresholds the paper fixes experimentally (§III-F).
const (
	// TSat is the saturation threshold separating white from the chromatic
	// colors.
	TSat = 0.41
	// Mu is the coefficient balancing black vs non-black mean values in the
	// adaptive T_v estimate (Eq. 2).
	Mu = 0.55
	// BlackSeedV is the value level below which a sampled pixel is treated
	// as black while *estimating* T_v (the "value smaller than 0.1" rule).
	BlackSeedV = 0.1
	// DefaultTV is the value threshold used when a frame contains no
	// usable samples for the adaptive estimate.
	DefaultTV = 0.35
)

// Classifier separates pixels into the five block colors. The zero value
// uses DefaultTV; use NewClassifier or EstimateTV to adapt T_v to a frame's
// brightness.
type Classifier struct {
	// TV is the value threshold below which a pixel is black.
	TV float64
}

// NewClassifier returns a classifier with the given value threshold.
func NewClassifier(tv float64) Classifier { return Classifier{TV: tv} }

// BlackLimit returns the number of channel levels k whose value k/255 lies
// below T_v, so that ClassifyRGB(p) == Black exactly when
// p.Below(BlackLimit()), that is when max(p.R, p.G, p.B) < BlackLimit().
// The levels are increasing, so the black ones are the prefix
// 0..limit-1: the limit is 0 for T_v <= 0 or NaN and 256 for T_v > 1.
// Scans that only separate black from non-black test one integer per
// pixel against it instead of classifying.
func (cl Classifier) BlackLimit() int {
	tv := cl.TV
	if tv == 0 {
		tv = DefaultTV
	}
	return sort.Search(len(u8f), func(k int) bool { return !(u8f[k] < tv) })
}

// ClassifyRGB classifies an RGB sample directly, bit-identical to the
// paper's HSV rule on p.ToHSV() (Classify, kept with the tests) for every
// input and threshold but without any float
// conversion: the black test is one table-backed comparison, the white
// test one table lookup, and the hue sector reduces to integer channel
// comparisons (see lut.go for the derivation and the exhaustive
// equivalence proof in the tests).
func (cl Classifier) ClassifyRGB(p RGB) Color {
	tv := cl.TV
	if tv == 0 {
		tv = DefaultTV
	}
	maxK, minK := p.maxMin()
	if u8f[maxK] < tv { // V = maxc
		return Black
	}
	if whiteTab[int(maxK)<<8|int(minK)] {
		return White
	}
	// Chromatic. Branch order matches ToHSV's max selection: R wins ties
	// with G and B, G wins ties with B.
	switch maxK {
	case p.R:
		if p.B == p.R {
			// Exact magenta tie: h == 300 lands on the blue sector's
			// inclusive upper boundary.
			return Blue
		}
		return Red
	case p.G:
		return Green
	default:
		return Blue
	}
}

// ClassifyRGBSoft classifies like ClassifyRGB and additionally reports a
// [0,1] confidence: the sample's normalized margin from the decision
// boundary that would first flip its class. Black confidence is the value
// margin below T_v; white is the smaller of the value margin above T_v and
// the saturation margin below T_sat; a chromatic color takes the smallest
// of the value margin, the saturation margin above T_sat, and the hue
// distance to the nearest sector boundary (60°/180°/300°) over the 60°
// half-sector. The color return is pinned bit-identical to ClassifyRGB:
// the decision uses the same arithmetic and branch order, and confidence
// is computed only after the class is fixed.
func (cl Classifier) ClassifyRGBSoft(p RGB) (Color, float64) {
	tv := cl.TV
	if tv == 0 {
		tv = DefaultTV
	}
	maxK, minK := p.maxMin()
	maxc := u8f[maxK]
	if maxc < tv { // V = maxc
		return Black, clamp01((tv - maxc) / tv)
	}
	delta := maxc - u8f[minK]
	vMargin := 1.0
	if tv < 1 {
		vMargin = (maxc - tv) / (1 - tv)
	}
	if whiteTab[int(maxK)<<8|int(minK)] {
		sMargin := (TSat - delta/maxc) / TSat
		if maxK == 0 {
			sMargin = 1
		}
		return White, clamp01(min(vMargin, sMargin))
	}
	sMargin := (delta/maxc - TSat) / (1 - TSat)
	r, g, b := u8f[p.R], u8f[p.G], u8f[p.B]
	var h float64
	switch maxK {
	case p.R:
		h = 60 * ((g - b) / delta)
	case p.G:
		h = 60 * ((b-r)/delta + 2)
	default: // max == b
		h = 60 * ((r-g)/delta + 4)
	}
	if h < 0 {
		h += 360
	}
	// Distance to the nearest sector boundary, over the 60° half-sector.
	// Boundaries sit at 60/180/300; red's sector wraps through 0.
	var hMargin float64
	switch {
	case h > 60 && h <= 180:
		hMargin = min(h-60, 180-h) / 60
		return Green, clamp01(min(vMargin, sMargin, hMargin))
	case h > 180 && h <= 300:
		hMargin = min(h-180, 300-h) / 60
		return Blue, clamp01(min(vMargin, sMargin, hMargin))
	default:
		if h > 300 {
			hMargin = min(h-300, 360-h+60) / 60
		} else {
			hMargin = min(h+60, 60-h) / 60
		}
		return Red, clamp01(min(vMargin, sMargin, hMargin))
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// EstimateTV computes the adaptive black/non-black threshold from a sample
// of pixel values (Eq. 2): T_v = μ·V_b + (1-μ)·V_o, where V_b and V_o are
// the mean values of the black and non-black pixel populations.
//
// The populations are separated by two-means clustering rather than the
// paper's fixed "V < 0.1 is black" seed: under ambient veiling light
// (outdoor captures) the black population floats well above 0.1 and the
// fixed seed finds no black pixels at all, while clustering still splits
// the two modes. When the sample has no meaningful bimodality (cluster
// means closer than 0.1) the capture has no usable structure and the
// estimate falls back to DefaultTV.
func EstimateTV(values []float64) float64 {
	vb, vo, ok := EstimateTVClusters(values)
	if !ok {
		return DefaultTV
	}
	return TVForMu(vb, vo, Mu)
}

// EstimateTVClusters runs the two-means split behind EstimateTV and returns
// the black and non-black cluster means themselves, so callers can re-derive
// T_v under alternative μ values (the decode-recovery μ-sweep) without
// re-clustering. ok is false when the sample has no usable bimodality — the
// same conditions under which EstimateTV falls back to DefaultTV.
func EstimateTVClusters(values []float64) (vb, vo float64, ok bool) {
	if len(values) == 0 {
		return 0, 0, false
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi-lo < 0.1 {
		return 0, 0, false
	}
	// Two-means on a scalar: iterate threshold = midpoint of cluster means.
	cb, co := lo, hi
	for iter := 0; iter < 16; iter++ {
		mid := (cb + co) / 2
		var sumB, sumO float64
		var nB, nO int
		for _, v := range values {
			if v < mid {
				sumB += v
				nB++
			} else {
				sumO += v
				nO++
			}
		}
		if nB == 0 || nO == 0 {
			break
		}
		nb, no := sumB/float64(nB), sumO/float64(nO)
		if nb == cb && no == co {
			break
		}
		cb, co = nb, no
	}
	if co-cb < 0.1 {
		return 0, 0, false
	}
	return cb, co, true
}

// TVForMu evaluates Eq. 2 for an arbitrary μ against previously estimated
// cluster means. TVForMu(vb, vo, Mu) is the exact expression EstimateTV
// computes.
func TVForMu(vb, vo, mu float64) float64 {
	return mu*vb + (1-mu)*vo
}

// RGBClassifier is the naive fixed-threshold RGB classifier used as the
// ablation baseline for experiment E15: it thresholds raw channel values
// and is brittle under illumination changes, unlike the HSV classifier.
type RGBClassifier struct {
	// Threshold is the channel level above which a channel counts as "on".
	// The zero value uses 128.
	Threshold uint8
}

// Classify maps an RGB sample to a block color by channel thresholding.
func (cl RGBClassifier) Classify(p RGB) Color {
	th := cl.Threshold
	if th == 0 {
		th = 128
	}
	r, g, b := p.R >= th, p.G >= th, p.B >= th
	switch {
	case r && g && b:
		return White
	case !r && !g && !b:
		return Black
	case r && !g && !b:
		return Red
	case !r && g && !b:
		return Green
	case !r && !g && b:
		return Blue
	default:
		// Ambiguous mixtures: pick the dominant channel.
		if p.R >= p.G && p.R >= p.B {
			return Red
		}
		if p.G >= p.B {
			return Green
		}
		return Blue
	}
}
