package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rainbar/internal/channel"
	"rainbar/internal/colorspace"
	"rainbar/internal/raster"
)

// gridSnapshot deep-copies what one grid decode left in a scratch.
type gridSnapshot struct {
	gd  GridDecode
	det detection
	lm  locatorMap
	err string
}

func snapshotGrid(gd *GridDecode, det *detection, lm *locatorMap, err error) gridSnapshot {
	var s gridSnapshot
	if err != nil {
		s.err = err.Error()
		return s
	}
	s.gd = *gd
	s.gd.Cells = append([]colorspace.Color(nil), gd.Cells...)
	s.gd.BarColors = append([]colorspace.Color(nil), gd.BarColors...)
	s.gd.BarOK = append([]bool(nil), gd.BarOK...)
	s.gd.Conf = append([]float64(nil), gd.Conf...)
	if gd.Recovery != nil {
		r := *gd.Recovery
		r.Attempts = append([]string(nil), r.Attempts...)
		s.gd.Recovery = &r
	}
	s.det = *det
	s.lm = *lm
	s.lm.left = append(s.lm.left[:0:0], lm.left...)
	s.lm.mid = append(s.lm.mid[:0:0], lm.mid...)
	s.lm.right = append(s.lm.right[:0:0], lm.right...)
	s.lm.leftOK = append(s.lm.leftOK[:0:0], lm.leftOK...)
	s.lm.midOK = append(s.lm.midOK[:0:0], lm.midOK...)
	s.lm.rgOK = append(s.lm.rgOK[:0:0], lm.rgOK...)
	return s
}

// scratchCapture generates one capture of kind k (0..5) of a frame: a
// filmed capture at a random distance, angle, brightness and chroma noise;
// the same turned half a turn; a render whose first middle locator is
// grayed out (locator loss, rescued by the re-scan); a capture whose
// header row is painted over; a render dimmed toward its bottom, so the
// default T_v reads dim cells black and the proactive μ-sweep runs; or a
// blank capture with no corner trackers.
func scratchCapture(t *testing.T, c *Codec, rng *rand.Rand, k int) *raster.Image {
	t.Helper()
	f, err := c.EncodeFrame(payloadFor(c, rng.Int63()), uint16(rng.Intn(64)), false)
	if err != nil {
		t.Fatal(err)
	}
	img := f.Render()
	film := func(img *raster.Image) *raster.Image {
		cfg := channel.DefaultConfig()
		cfg.DistanceCM = 9 + 6*rng.Float64()
		cfg.ViewAngleDeg = 20 * rng.Float64()
		cfg.ScreenBrightness = 0.5 + 0.5*rng.Float64()
		cfg.ChromaNoiseStdDev = 40 * rng.Float64()
		cfg.Seed = rng.Int63()
		capt, err := channel.MustNew(cfg).Capture(img)
		if err != nil {
			t.Fatal(err)
		}
		return capt
	}
	switch k {
	case 0:
		return film(img)
	case 1:
		return film(img).Rotate180()
	case 2:
		bs := c.cfg.Geometry.BlockSize()
		img.FillRect(img.W/2-40-rng.Intn(bs), 2*bs, 80, bs, colorspace.RGB{R: 120, G: 120, B: 120})
		return img
	case 3:
		for _, cell := range c.cfg.Geometry.HeaderCells() {
			if rng.Intn(3) == 0 {
				bs := c.cfg.Geometry.BlockSize()
				img.FillRect(cell.Col*bs, cell.Row*bs, bs, bs, colorspace.RGB{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256))})
			}
		}
		return film(img)
	case 4:
		floor := 0.15 + 0.2*rng.Float64()
		for y := 0; y < img.H; y++ {
			gain := 1 - (1-floor)*float64(y)/float64(img.H)
			for x := 0; x < img.W; x++ {
				p := &img.Pix[y*img.W+x]
				p.R, p.G, p.B = uint8(float64(p.R)*gain), uint8(float64(p.G)*gain), uint8(float64(p.B)*gain)
			}
		}
		return img
	default:
		blank := raster.New(img.W, img.H)
		blank.Fill(colorspace.RGBWhite)
		return blank
	}
}

// TestScratchReuseMatchesFresh: one decode scratch (and one assembly
// scratch) that decodes a generated sequence of captures gives every
// capture exactly what fresh scratches give — the GridDecode fields, the
// detection and locator fix, the payload, the recovery trace and the
// error — for codecs with the recovery ladder off and on. At least one
// capture must adopt a μ-sweep re-extraction (so the two grid slots
// really swap) and at least one must win a locator re-scan.
func TestScratchReuseMatchesFresh(t *testing.T) {
	var codecs []*Codec
	for _, budget := range []int{0, DefaultRecoveryBudget} {
		c, err := NewCodec(Config{Geometry: testGeometry(t), DisplayRate: 10, AppType: 1, RecoveryBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		codecs = append(codecs, c)
	}
	rng := rand.New(rand.NewSource(25))
	sc, as := new(decodeScratch), new(asmScratch)
	var swaps, rescans, decoded int
	const captures = 60
	for i := 0; i < captures; i++ {
		c := codecs[i%len(codecs)]
		kind := (i / len(codecs)) % 6
		img := scratchCapture(t, c, rng, kind)
		name := fmt.Sprintf("capture %d (kind %d, budget %d)", i, kind, c.cfg.RecoveryBudget)

		grid := func(sc *decodeScratch) gridSnapshot {
			gd, det, lm, rot, err := c.decodeEitherWay(img, c.newLadder(), sc)
			raster.Recycle(rot)
			return snapshotGrid(gd, det, lm, err)
		}
		want, got := grid(new(decodeScratch)), grid(sc)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: reused scratch decodes grid\n%+v\nfresh scratch\n%+v", name, got, want)
		}
		if r := want.gd.Recovery; r != nil {
			if r.Winner == HypMuLow || r.Winner == HypMuHigh {
				swaps++
			}
			// A grid whose ladder tried the rescan got past localization, so
			// the rescan won (a μ-sweep adoption after it takes over Winner).
			if r.Attempts[0] == HypRescan {
				rescans++
			}
		}

		wh, wp, wt, we := c.decodeFrame(img, new(decodeScratch), new(asmScratch))
		gh, gp, gt, ge := c.decodeFrame(img, sc, as)
		if gh != wh || !bytes.Equal(gp, wp) || !reflect.DeepEqual(gt, wt) || fmt.Sprint(ge) != fmt.Sprint(we) {
			t.Fatalf("%s: reused scratch decodes frame (%+v, %d bytes, %+v, %v), fresh (%+v, %d bytes, %+v, %v)",
				name, gh, len(gp), gt, ge, wh, len(wp), wt, we)
		}
		if we == nil {
			decoded++
		}
	}
	t.Logf("%d captures: %d decoded, %d μ-sweep adoptions, %d rescan wins", captures, decoded, swaps, rescans)
	if swaps == 0 || rescans == 0 {
		t.Fatalf("%d μ-sweep adoptions and %d rescan wins; the generators must produce at least one of each", swaps, rescans)
	}
}
