package colorspace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestColorString(t *testing.T) {
	cases := map[Color]string{
		White: "white", Red: "red", Green: "green", Blue: "blue",
		Black: "black", Color(9): "invalid",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", c, got, want)
		}
	}
}

func TestBitsRoundTrip(t *testing.T) {
	for _, c := range []Color{White, Red, Green, Blue} {
		if !c.IsData() {
			t.Errorf("%v.IsData() = false", c)
		}
		if got := FromBits(c.Bits()); got != c {
			t.Errorf("FromBits(Bits(%v)) = %v", c, got)
		}
	}
	if Black.IsData() {
		t.Error("Black.IsData() = true")
	}
}

func TestBitsPanicsOnBlack(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Black.Bits() did not panic")
		}
	}()
	Black.Bits()
}

func TestToHSVPrimaries(t *testing.T) {
	cases := []struct {
		rgb  RGB
		want HSV
	}{
		{RGBWhite, HSV{0, 0, 1}},
		{RGBBlack, HSV{0, 0, 0}},
		{RGBRed, HSV{0, 1, 1}},
		{RGBGreen, HSV{120, 1, 1}},
		{RGBBlue, HSV{240, 1, 1}},
		{RGB{255, 255, 0}, HSV{60, 1, 1}},  // yellow
		{RGB{0, 255, 255}, HSV{180, 1, 1}}, // cyan
		{RGB{255, 0, 255}, HSV{300, 1, 1}}, // magenta
		{RGB{128, 128, 128}, HSV{0, 0, 128.0 / 255}},
	}
	for _, c := range cases {
		got := c.rgb.ToHSV()
		if math.Abs(got.H-c.want.H) > 1e-9 || math.Abs(got.S-c.want.S) > 1e-9 || math.Abs(got.V-c.want.V) > 1e-9 {
			t.Errorf("ToHSV(%v) = %+v, want %+v", c.rgb, got, c.want)
		}
	}
}

func TestHSVRoundTripProperty(t *testing.T) {
	prop := func(r, g, b uint8) bool {
		in := RGB{r, g, b}
		out := in.ToHSV().ToRGB()
		// Allow 1 LSB of rounding error per channel.
		d := func(a, b uint8) int {
			if a > b {
				return int(a - b)
			}
			return int(b - a)
		}
		return d(in.R, out.R) <= 1 && d(in.G, out.G) <= 1 && d(in.B, out.B) <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestClassifyReferenceColors(t *testing.T) {
	cl := NewClassifier(0.35)
	for _, c := range []Color{White, Red, Green, Blue, Black} {
		if got := cl.ClassifyRGB(Paint(c)); got != c {
			t.Errorf("ClassifyRGB(Paint(%v)) = %v", c, got)
		}
	}
}

func TestClassifyDimmedColors(t *testing.T) {
	// Simulate a 50%-brightness screen: all channels halved. The HSV
	// classifier must still recognize every color because hue and
	// saturation survive uniform dimming.
	cl := NewClassifier(0.25)
	dim := func(p RGB) RGB { return RGB{p.R / 2, p.G / 2, p.B / 2} }
	for _, c := range []Color{White, Red, Green, Blue, Black} {
		if got := cl.ClassifyRGB(dim(Paint(c))); got != c {
			t.Errorf("dimmed %v classified as %v", c, got)
		}
	}
}

func TestClassifyHueBoundaries(t *testing.T) {
	cl := NewClassifier(0.3)
	cases := []struct {
		hsv  HSV
		want Color
	}{
		{HSV{59, 1, 1}, Red},
		{HSV{61, 1, 1}, Green},
		{HSV{179, 1, 1}, Green},
		{HSV{181, 1, 1}, Blue},
		{HSV{299, 1, 1}, Blue},
		{HSV{301, 1, 1}, Red},
		{HSV{350, 1, 1}, Red},
		{HSV{0, 0.40, 1}, White},   // just under T_sat
		{HSV{0, 0.42, 1}, Red},     // just over T_sat
		{HSV{120, 1, 0.29}, Black}, // under T_v
		{HSV{120, 1, 0.31}, Green}, // over T_v
	}
	for _, c := range cases {
		if got := cl.Classify(c.hsv); got != c.want {
			t.Errorf("Classify(%+v) = %v, want %v", c.hsv, got, c.want)
		}
	}
}

func TestZeroValueClassifierUsesDefault(t *testing.T) {
	var cl Classifier
	if got := cl.Classify(HSV{0, 0, DefaultTV - 0.01}); got != Black {
		t.Errorf("zero-value classifier: dark pixel = %v, want black", got)
	}
	if got := cl.Classify(HSV{0, 0, DefaultTV + 0.01}); got != White {
		t.Errorf("zero-value classifier: bright pixel = %v, want white", got)
	}
}

func TestEstimateTV(t *testing.T) {
	// Half black (V≈0.05), half bright (V≈0.9):
	// T_v = 0.55*0.05 + 0.45*0.9 = 0.4325.
	values := []float64{0.05, 0.05, 0.9, 0.9}
	got := EstimateTV(values)
	want := Mu*0.05 + (1-Mu)*0.9
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("EstimateTV = %v, want %v", got, want)
	}
}

func TestEstimateTVNoBlackSamples(t *testing.T) {
	// All-bright samples have no black/non-black bimodality: the
	// clustering estimator falls back to the default threshold rather
	// than inventing a black population.
	if got := EstimateTV([]float64{0.8, 0.82, 0.85, 0.9}); got != DefaultTV {
		t.Errorf("EstimateTV without black = %v, want DefaultTV", got)
	}
}

func TestEstimateTVWithVeilingLight(t *testing.T) {
	// Outdoor regime: ambient glare lifts black pixels to ~0.2, above the
	// paper's fixed 0.1 seed. The clustering estimator must still place
	// T_v between the two populations.
	values := []float64{0.19, 0.2, 0.21, 0.22, 0.75, 0.8, 0.85, 0.82}
	tv := EstimateTV(values)
	if tv <= 0.22 || tv >= 0.75 {
		t.Errorf("T_v = %v not between veiled black (~0.2) and bright (~0.8)", tv)
	}
}

func TestEstimateTVDegenerate(t *testing.T) {
	if got := EstimateTV(nil); got != DefaultTV {
		t.Errorf("EstimateTV(nil) = %v, want default", got)
	}
	if got := EstimateTV([]float64{0.01, 0.02}); got != DefaultTV {
		t.Errorf("EstimateTV(all black) = %v, want default", got)
	}
}

func TestEstimateTVSeparatesBrightnessLevels(t *testing.T) {
	// The whole point of Eq. 2: T_v must land strictly between the black
	// mean and the non-black mean for any illumination level.
	for _, bright := range []float64{0.3, 0.5, 0.7, 1.0} {
		values := []float64{0.02, 0.03, bright, bright * 0.95}
		tv := EstimateTV(values)
		if tv <= 0.03 || tv >= bright*0.95 {
			t.Errorf("brightness %.2f: T_v = %v not between black and bright means", bright, tv)
		}
	}
}

func TestRGBClassifierReference(t *testing.T) {
	var cl RGBClassifier
	for _, c := range []Color{White, Red, Green, Blue, Black} {
		if got := cl.Classify(Paint(c)); got != c {
			t.Errorf("RGBClassifier(Paint(%v)) = %v", c, got)
		}
	}
}

func TestRGBClassifierBreaksUnderDimming(t *testing.T) {
	// The ablation premise: fixed RGB thresholds misclassify dimmed colors
	// that the HSV classifier handles (see TestClassifyDimmedColors).
	var cl RGBClassifier
	dimRed := RGB{100, 0, 0} // 40% brightness red
	if got := cl.Classify(dimRed); got == Red {
		t.Skip("RGB classifier unexpectedly robust; ablation premise void")
	}
	hsv := NewClassifier(0.2)
	if got := hsv.ClassifyRGB(dimRed); got != Red {
		t.Errorf("HSV classifier failed on dim red: %v", got)
	}
}

func TestClassifyRGBMatchesHSVPath(t *testing.T) {
	// The fast path must agree with the reference two-step conversion for
	// every input and threshold — including exact hue-boundary mixtures
	// like magenta, where h lands on 300 precisely.
	for _, tv := range []float64{0, 0.1, DefaultTV, 0.5, 0.9} {
		cl := Classifier{TV: tv}
		for r := 0; r < 256; r += 5 {
			for g := 0; g < 256; g += 5 {
				for b := 0; b < 256; b += 5 {
					p := RGB{uint8(r), uint8(g), uint8(b)}
					if got, want := cl.ClassifyRGB(p), cl.Classify(p.ToHSV()); got != want {
						t.Fatalf("TV=%v ClassifyRGB(%v) = %v, Classify(ToHSV) = %v", tv, p, got, want)
					}
				}
			}
		}
		for _, p := range []RGB{
			{200, 0, 200}, {200, 200, 0}, {0, 200, 200}, // exact sector edges
			{255, 255, 255}, {1, 1, 1}, {0, 0, 0},
		} {
			if got, want := cl.ClassifyRGB(p), cl.Classify(p.ToHSV()); got != want {
				t.Fatalf("TV=%v ClassifyRGB(%v) = %v, Classify(ToHSV) = %v", tv, p, got, want)
			}
		}
	}
}

func TestPaintCoversAllColors(t *testing.T) {
	if Paint(Color(200)) != RGBBlack {
		t.Error("Paint of invalid color should be black")
	}
}

func TestClassifyRGBSoftMatchesHard(t *testing.T) {
	// The soft classifier's color must be bit-identical to ClassifyRGB on
	// every input and threshold, and its confidence must stay in [0,1].
	rng := rand.New(rand.NewSource(7))
	for _, tv := range []float64{0, 0.1, DefaultTV, 0.5, 0.9} {
		cl := Classifier{TV: tv}
		for i := 0; i < 200000; i++ {
			p := RGB{uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))}
			soft, conf := cl.ClassifyRGBSoft(p)
			if hard := cl.ClassifyRGB(p); soft != hard {
				t.Fatalf("TV=%v ClassifyRGBSoft(%v) = %v, ClassifyRGB = %v", tv, p, soft, hard)
			}
			if conf < 0 || conf > 1 {
				t.Fatalf("TV=%v ClassifyRGBSoft(%v) confidence %v outside [0,1]", tv, p, conf)
			}
		}
		for _, p := range []RGB{
			{200, 0, 200}, {200, 200, 0}, {0, 200, 200},
			{255, 255, 255}, {1, 1, 1}, {0, 0, 0},
		} {
			soft, conf := cl.ClassifyRGBSoft(p)
			if hard := cl.ClassifyRGB(p); soft != hard {
				t.Fatalf("TV=%v ClassifyRGBSoft(%v) = %v, ClassifyRGB = %v", tv, p, soft, hard)
			}
			if conf < 0 || conf > 1 {
				t.Fatalf("TV=%v conf %v outside [0,1]", tv, conf)
			}
		}
	}
}

func TestClassifyRGBSoftConfidenceOrdering(t *testing.T) {
	// A sample near a decision boundary must score below one deep inside
	// its class.
	cl := Classifier{TV: 0.35}
	_, deep := cl.ClassifyRGBSoft(RGB{255, 0, 0})      // pure red
	_, shallow := cl.ClassifyRGBSoft(RGB{255, 200, 0}) // near the 60° edge
	if deep <= shallow {
		t.Fatalf("pure red confidence %v should exceed near-boundary %v", deep, shallow)
	}
	_, wb := cl.ClassifyRGBSoft(RGB{0, 0, 0}) // deep black
	if wb != 1 {
		t.Fatalf("pure black confidence = %v, want 1", wb)
	}
}

func TestEstimateTVClustersMatchesEstimateTV(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(120)
		values := make([]float64, n)
		for i := range values {
			values[i] = rng.Float64()
		}
		want := EstimateTV(values)
		vb, vo, ok := EstimateTVClusters(values)
		got := DefaultTV
		if ok {
			got = TVForMu(vb, vo, Mu)
		}
		if got != want {
			t.Fatalf("trial %d: TVForMu(clusters) = %v, EstimateTV = %v", trial, got, want)
		}
	}
	if _, _, ok := EstimateTVClusters(nil); ok {
		t.Fatal("EstimateTVClusters(nil) should report no bimodality")
	}
}

// Classify maps one HSV sample to a block color using the paper's decision
// procedure: value below T_v → black; else saturation below T_sat → white;
// else hue sector → green (60°,180°), blue (180°,300°), red otherwise. It
// is the reference the table-driven ClassifyRGB is tested against.
func (cl Classifier) Classify(p HSV) Color {
	tv := cl.TV
	if tv == 0 {
		tv = DefaultTV
	}
	if p.V < tv {
		return Black
	}
	if p.S < TSat {
		return White
	}
	switch {
	case p.H > 60 && p.H <= 180:
		return Green
	case p.H > 180 && p.H <= 300:
		return Blue
	default:
		return Red
	}
}
