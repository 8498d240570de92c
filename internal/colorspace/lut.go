package colorspace

// Table-driven classification support. ClassifyRGB is a hot kernel in the
// decoder (ring votes, the header strip and every data-cell read go
// through it; the black-only scans of detection, K-means correction and
// locator probes use the equivalent BlackLimit test), so the per-pixel
// float conversion is replaced by integer comparisons plus two small
// lookup tables. The contract is strict bit-identity with
// Classify(p.ToHSV()) for every (TV, RGB) input; the tables are therefore
// *derived by running the reference float expressions* over their full
// integer domains at init, never by re-deriving thresholds in integer
// space.
//
// Why integer decisions suffice:
//
//   - Black: the reference tests maxc < TV where maxc = float64(maxK)/255
//     and maxK is the integer channel max (float max and integer max agree
//     because k ↦ k/255 rounds monotonically). u8f caches exactly those
//     256 quotients, so u8f[maxK] < tv is the same comparison, and
//     BlackLimit reduces it to maxK < limit.
//
//   - White: the reference tests maxc == 0 || delta/maxc < TSat, which
//     depends only on the (max, min) integer pair — delta is the rounded
//     difference of the two cached quotients. whiteTab enumerates all
//     65536 pairs through the float expression.
//
//   - Chromatic sectors: within each max-channel branch the hue is a
//     monotone function of one quotient q = (±num)/delta with |num| and
//     delta rounded differences of u8f entries. Distinct entries differ by
//     at least 1/255 - 2⁻⁵², so q is at least ~0.0039 away from ±1
//     whenever the corresponding channels differ — far outside the ~2⁻⁴⁵
//     rounding slop of the 60·q±k sector arithmetic. The sector
//     boundaries at exactly 60°/180°/300° are hit only on exact channel
//     ties (q = ±1), which are integer equalities. With max == R, h lies
//     in [0, 60] for G ≥ B (Red, h == 60 inclusive); for G < B the hue
//     wraps to (300, 360), Red, except the exact magenta tie B == R,
//     where h == 300 → Blue. With max == G, h lies in (60, 180] always
//     (the yellow tie R == G would give h == 60, but R == G makes R the
//     max branch) → Green. With max == B, h lies in (180, 300) always
//     (both ties fall to other branches) → Blue.
//
//     TestClassifyLUTExhaustive verifies the reduction against the float
//     path over the entire 2²⁴ RGB domain.
var (
	// u8f[k] is float64(k)/255 — the exact quotient ToHSV computes for a
	// channel value of k.
	u8f [256]float64
	// whiteTab[maxK<<8|minK] reports the reference white test for a pixel
	// whose integer channel max/min are maxK/minK. Entries with
	// minK > maxK are unreachable.
	whiteTab [65536]bool
)

func init() {
	for k := range u8f {
		u8f[k] = float64(k) / 255
	}
	for maxK := 0; maxK < 256; maxK++ {
		maxc := u8f[maxK]
		for minK := 0; minK <= maxK; minK++ {
			delta := maxc - u8f[minK]
			// The reference expression from the float classifier: S is
			// defined as 0 when maxc == 0 (which also forces delta == 0).
			whiteTab[maxK<<8|minK] = maxc == 0 || delta/maxc < TSat
		}
	}
}

// Value returns the HSV value channel of p, bit-identical to p.ToHSV().V,
// without the rest of the conversion.
func (c RGB) Value() float64 {
	maxK, _ := c.maxMin()
	return u8f[maxK]
}

// maxMin returns the largest and the smallest channel of c without a
// data-dependent branch: Go compiles a byte max or min to compare-and-jump,
// which noisy pixels mispredict (see Below). For an int d, d&(d>>63) is d
// when d is negative and 0 otherwise, so adding or subtracting it selects.
func (c RGB) maxMin() (hi, lo uint8) {
	r, g, b := int(c.R), int(c.G), int(c.B)
	d := r - g
	d &= d >> 63
	h, l := r-d, g+d // max(r, g), min(r, g)
	d = h - b
	h -= d & (d >> 63)
	d = b - l
	l += d & (d >> 63)
	return uint8(h), uint8(l)
}

// Below reports whether every channel of c is below limit, that is whether
// max(R, G, B) < limit; with limit = cl.BlackLimit() that is exactly
// cl.ClassifyRGB(c) == Black. It takes no branch per channel, because
// Go compiles a byte max to compare-and-jump, which noisy pixels
// mispredict: a channel is below the limit exactly when its difference
// from it is negative, and the AND of three ints is negative exactly when
// all three are.
func (c RGB) Below(limit int) bool {
	return (int(c.R)-limit)&(int(c.G)-limit)&(int(c.B)-limit) < 0
}
