package channel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// surroundStats summarizes one checked surround.
type surroundStats struct {
	certified       int // certified pixels
	full, part, any bool
}

// checkSurround builds the surround of a w x h capture under cfg and fails
// unless every row has 0 <= lo <= hi <= w, and every certified pixel, pushed
// through the capture's own float path (the lens model, then the inverse of
// the jittered perspective view), lands off the screen at the four corners
// of the jitter box and at random jitters inside it.
func checkSurround(t testing.TB, cfg Config, w, h int, rng *rand.Rand) surroundStats {
	t.Helper()
	lo, hi := (&Channel{cfg: cfg}).Surround(w, h)
	if len(lo) != h || len(hi) != h {
		t.Fatalf("%+v %dx%d: surround of %d and %d rows", cfg, w, h, len(lo), len(hi))
	}
	var st surroundStats
	for y := range lo {
		if lo[y] < 0 || lo[y] > hi[y] || int(hi[y]) > w {
			t.Fatalf("%+v %dx%d: row %d has lo %d, hi %d", cfg, w, h, y, lo[y], hi[y])
		}
		n := int(lo[y]) + w - int(hi[y])
		st.certified += n
		st.full = st.full || n == w
		st.part = st.part || (n > 0 && n < w)
	}
	st.any = st.certified > 0
	if !st.any {
		return st
	}
	j := cfg.JitterPx
	jitters := [][2]float64{{-j, -j}, {-j, j}, {j, -j}, {j, j}}
	for k := 0; k < 4; k++ {
		jitters = append(jitters, [2]float64{(rng.Float64()*2 - 1) * j, (rng.Float64()*2 - 1) * j})
	}
	for _, jit := range jitters {
		toScreen, err := refMap(cfg, w, h, jit[0], jit[1])
		if err != nil {
			continue // a capture at this jitter fails, so films no pixel
		}
		for y := range lo {
			for x := 0; x < w; x++ {
				if x == int(lo[y]) {
					x = int(hi[y]) // skip the uncertified span
					if x >= w {
						break
					}
				}
				if src := toScreen(x, y); !refOffScreen(src, w, h) {
					t.Fatalf("%+v %dx%d: certified pixel (%d,%d) films screen point %v at jitter %v (row lo %d, hi %d)",
						cfg, w, h, x, y, src, jit, lo[y], hi[y])
				}
			}
		}
	}
	return st
}

// genSurroundConfig draws a condition across the ranges the channel
// accepts: 3–33 cm, ±60°, K1 in [-0.1, 0.1], K2 in [-0.02, 0.02], jitter
// zero, negative or up to 3 px, and now and then a NaN or infinite field.
func genSurroundConfig(rng *rand.Rand) Config {
	cfg := DefaultConfig()
	cfg.DistanceCM = 3 + 30*rng.Float64()
	cfg.ViewAngleDeg = rng.Float64()*120 - 60
	cfg.LensK1 = rng.Float64()*0.2 - 0.1
	cfg.LensK2 = rng.Float64()*0.04 - 0.02
	switch rng.Intn(4) {
	case 0:
		cfg.JitterPx = 0
	case 1:
		cfg.JitterPx = -3 * rng.Float64()
	default:
		cfg.JitterPx = 3 * rng.Float64()
	}
	if rng.Intn(8) == 0 {
		bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
		fields := []*float64{&cfg.DistanceCM, &cfg.ViewAngleDeg, &cfg.LensK1, &cfg.LensK2, &cfg.JitterPx}
		*fields[rng.Intn(len(fields))] = bad
	}
	return cfg
}

// nonFinite reports whether a field the capture geometry reads is NaN or
// infinite.
func nonFinite(cfg Config) bool {
	for _, v := range []float64{cfg.DistanceCM, cfg.ViewAngleDeg, cfg.LensK1, cfg.LensK2, cfg.JitterPx} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// TestSurroundCertified is the surround's soundness property: over
// generated conditions and capture sizes up to 200x150, no certified pixel
// films the screen at any jitter the channel can draw, and a condition
// with a NaN or infinite field certifies nothing.
func TestSurroundCertified(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 200
	if testing.Short() {
		n = 50
	}
	var seen struct{ full, part, none, nonFinite, negJitter, zeroJitter bool }
	for i := 0; i < n; i++ {
		cfg := genSurroundConfig(rng)
		w, h := 1+rng.Intn(200), 1+rng.Intn(150)
		t.Run(fmt.Sprintf("%d_%dx%d", i, w, h), func(t *testing.T) {
			st := checkSurround(t, cfg, w, h, rng)
			if nonFinite(cfg) && st.any {
				t.Fatalf("%+v: certified %d pixels of a non-finite condition", cfg, st.certified)
			}
			seen.full = seen.full || st.full
			seen.part = seen.part || st.part
			seen.none = seen.none || (!st.any && !nonFinite(cfg))
			seen.nonFinite = seen.nonFinite || nonFinite(cfg)
			seen.negJitter = seen.negJitter || (cfg.JitterPx < 0 && st.any)
			seen.zeroJitter = seen.zeroJitter || (cfg.JitterPx == 0 && st.any)
		})
	}
	if !seen.full || !seen.part || !seen.none || !seen.nonFinite || !seen.negJitter || !seen.zeroJitter {
		t.Errorf("generator missed a case: %+v", seen)
	}
}

// FuzzSurround checks the same soundness over fuzzed conditions: any
// distance, angle, lens and jitter values, NaN and infinities included,
// at sizes up to 200x150. Conditions the channel rejects are skipped,
// since it never films them.
func FuzzSurround(f *testing.F) {
	f.Fuzz(func(t *testing.T, dist, angle, k1, k2, jitter float64, wb, hb uint8) {
		cfg := DefaultConfig()
		cfg.DistanceCM, cfg.ViewAngleDeg, cfg.LensK1, cfg.LensK2, cfg.JitterPx = dist, angle, k1, k2, jitter
		if cfg.Validate() != nil {
			return
		}
		w, h := 1+int(wb)%200, 1+int(hb)%150
		st := checkSurround(t, cfg, w, h, rand.New(rand.NewSource(1)))
		if nonFinite(cfg) && st.any {
			t.Fatalf("%+v: certified %d pixels of a non-finite condition", cfg, st.certified)
		}
	})
}
