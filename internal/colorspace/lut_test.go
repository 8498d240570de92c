package colorspace

import (
	"math"
	"math/rand"
	"testing"
)

// classifyRGBSoftFloat is the pre-LUT float implementation of
// ClassifyRGBSoft, kept verbatim as the executable specification: the
// table-driven path must reproduce both its class and its confidence bits.
func classifyRGBSoftFloat(cl Classifier, p RGB) (Color, float64) {
	tv := cl.TV
	if tv == 0 {
		tv = DefaultTV
	}
	r := float64(p.R) / 255
	g := float64(p.G) / 255
	b := float64(p.B) / 255
	maxc := r
	if g > maxc {
		maxc = g
	}
	if b > maxc {
		maxc = b
	}
	if maxc < tv {
		return Black, clamp01((tv - maxc) / tv)
	}
	minc := r
	if g < minc {
		minc = g
	}
	if b < minc {
		minc = b
	}
	delta := maxc - minc
	vMargin := 1.0
	if tv < 1 {
		vMargin = (maxc - tv) / (1 - tv)
	}
	if maxc == 0 || delta/maxc < TSat {
		sMargin := (TSat - delta/maxc) / TSat
		if maxc == 0 {
			sMargin = 1
		}
		return White, clamp01(min(vMargin, sMargin))
	}
	sMargin := (delta/maxc - TSat) / (1 - TSat)
	var h float64
	switch {
	case maxc == r:
		h = 60 * ((g - b) / delta)
	case maxc == g:
		h = 60 * ((b-r)/delta + 2)
	default:
		h = 60 * ((r-g)/delta + 4)
	}
	if h < 0 {
		h += 360
	}
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

func TestClassifyLUTExhaustive(t *testing.T) {
	// The integer reduction must agree with the two-step float reference
	// over the ENTIRE 8-bit RGB domain — 2^24 inputs, no sampling. The TV
	// threshold enters both paths through the identical u8f[max] < tv
	// comparison, so one representative threshold exhausts the sector and
	// white logic; TV variation is covered by the sampled sweep below.
	cl := Classifier{} // DefaultTV
	for r := 0; r < 256; r++ {
		for g := 0; g < 256; g++ {
			for b := 0; b < 256; b++ {
				p := RGB{uint8(r), uint8(g), uint8(b)}
				want := cl.Classify(p.ToHSV())
				if got := cl.ClassifyRGB(p); got != want {
					t.Fatalf("ClassifyRGB(%v) = %v, Classify(ToHSV) = %v", p, got, want)
				}
			}
		}
	}
}

func TestClassifyLUTSampledTV(t *testing.T) {
	// Random RGB x TV sweep, including thresholds that sit exactly on
	// u8f quantization points (where u8f[max] < tv flips) and the
	// degenerate tv >= 1 / tiny-tv extremes.
	tvs := []float64{0.05, 0.1, 0.32, DefaultTV, 0.5, 0.77, 0.9, 0.999, 1.0}
	for k := 0; k < 256; k += 17 {
		tvs = append(tvs, float64(k)/255)
	}
	rng := rand.New(rand.NewSource(99))
	for _, tv := range tvs {
		cl := Classifier{TV: tv}
		for i := 0; i < 60000; i++ {
			p := RGB{uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))}
			want := cl.Classify(p.ToHSV())
			if got := cl.ClassifyRGB(p); got != want {
				t.Fatalf("TV=%v ClassifyRGB(%v) = %v, want %v", tv, p, got, want)
			}
		}
	}
}

func TestClassifyRGBSoftMatchesFloatReference(t *testing.T) {
	// Class AND confidence must be bit-identical to the float
	// implementation — confidences feed vote weights and erasure ranking,
	// so a one-ulp drift would change experiment tables.
	rng := rand.New(rand.NewSource(41))
	for _, tv := range []float64{0, 0.1, DefaultTV, 0.5, 0.9, 1.0} {
		cl := Classifier{TV: tv}
		for i := 0; i < 300000; i++ {
			p := RGB{uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))}
			gotC, gotF := cl.ClassifyRGBSoft(p)
			wantC, wantF := classifyRGBSoftFloat(cl, p)
			if gotC != wantC || gotF != wantF {
				t.Fatalf("TV=%v ClassifyRGBSoft(%v) = (%v, %v), want (%v, %v)",
					tv, p, gotC, gotF, wantC, wantF)
			}
		}
	}
}

func TestValueMatchesToHSV(t *testing.T) {
	for r := 0; r < 256; r += 3 {
		for g := 0; g < 256; g += 3 {
			for b := 0; b < 256; b += 3 {
				p := RGB{uint8(r), uint8(g), uint8(b)}
				if got, want := p.Value(), p.ToHSV().V; got != want {
					t.Fatalf("Value(%v) = %v, ToHSV().V = %v", p, got, want)
				}
			}
		}
	}
}

// blackLimitTVs are the thresholds the BlackLimit proof runs at: zero
// (DefaultTV), every level k/255 exactly, every midpoint between
// neighbouring levels, and the degenerate negative, above-one, infinite
// and NaN thresholds.
func blackLimitTVs() []float64 {
	tvs := []float64{0, -0.2, 1.01, math.Inf(1), math.Inf(-1), math.NaN()}
	for k := 0; k < 256; k++ {
		tvs = append(tvs, float64(k)/255)
		if k < 255 {
			tvs = append(tvs, (float64(k)/255+float64(k+1)/255)/2)
		}
	}
	return tvs
}

func TestBlackLimitMatchesClassifier(t *testing.T) {
	for _, tv := range blackLimitTVs() {
		cl := Classifier{TV: tv}
		limit := cl.BlackLimit()
		// The limit counts the levels below the effective threshold,
		// computed here from the quotients themselves, not from u8f.
		eff := tv
		if eff == 0 {
			eff = DefaultTV
		}
		want := 0
		for k := 0; k < 256; k++ {
			if float64(k)/255 < eff {
				want++
			}
		}
		if limit != want {
			t.Fatalf("TV=%v BlackLimit = %d, want %d", tv, limit, want)
		}
		// The black decision depends on the channel max alone: check every
		// max with the other channels at both extremes and in between.
		for m := 0; m < 256; m++ {
			mk := uint8(m)
			for _, p := range []RGB{
				{mk, mk, mk}, {mk, 0, 0}, {0, mk, 0}, {0, 0, mk},
				{mk, mk / 2, 0}, {0, mk / 3, mk}, {mk / 2, mk, mk},
			} {
				black := m < limit
				if got := p.Below(limit); got != black {
					t.Fatalf("%v.Below(%d) = %v, max %d < limit is %v", p, limit, got, m, black)
				}
				if got := cl.ClassifyRGB(p) == Black; got != black {
					t.Fatalf("TV=%v ClassifyRGB(%v) black=%v, max %d < limit %d is %v", tv, p, got, m, limit, black)
				}
				if c, _ := cl.ClassifyRGBSoft(p); (c == Black) != black {
					t.Fatalf("TV=%v ClassifyRGBSoft(%v) = %v, max %d < limit %d is %v", tv, p, c, m, limit, black)
				}
			}
		}
	}
}
