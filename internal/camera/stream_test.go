package camera

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"rainbar/internal/channel"
	"rainbar/internal/colorspace"
	"rainbar/internal/faults"
	"rainbar/internal/raster"
	"rainbar/internal/screen"
)

// patternFrame draws frame i of a w x h sequence: a per-frame colour with
// a diagonal stripe whose position moves with i, so every frame and every
// row of a mixed capture is distinguishable.
func patternFrame(i, w, h int) *raster.Image {
	img := raster.New(w, h)
	base := colorspace.RGB{R: uint8(40 * (i % 6)), G: uint8(255 - 30*(i%8)), B: uint8(70 * (i % 4))}
	img.Fill(base)
	for y := 0; y < h; y++ {
		img.Set((y+3*i)%w, y, colorspace.RGBBlack)
	}
	return img
}

// streamCase is one generated filming configuration.
type streamCase struct {
	frames, w, h int
	displayRate  float64
	transition   time.Duration
	cam          Camera
	chanCfg      channel.Config
	faults       string
}

func (c streamCase) String() string {
	return fmt.Sprintf("%d %dx%d frames at %.1f fps, transition %v, camera %.1f fps readout %.2f phase %v jitter %v, channel seed %d, faults %q",
		c.frames, c.w, c.h, c.displayRate, c.transition, c.cam.RateFPS, c.cam.ReadoutFraction, c.cam.Phase, c.cam.TimingJitter, c.chanCfg.Seed, c.faults)
}

func genStreamCase(rng *rand.Rand) streamCase {
	c := streamCase{
		frames:      1 + rng.Intn(12),
		w:           16 + rng.Intn(24),
		h:           12 + rng.Intn(24),
		displayRate: 5 + 55*rng.Float64(),
		transition:  []time.Duration{0, 5 * time.Millisecond, screen.DefaultTransition, 40 * time.Millisecond}[rng.Intn(4)],
		cam: Camera{
			RateFPS:         10 + 50*rng.Float64(),
			ReadoutFraction: 0.3 + 0.7*rng.Float64(),
			Phase:           time.Duration(rng.Intn(60)-20) * time.Millisecond,
			Seed:            rng.Int63(),
		},
		chanCfg: channel.DefaultConfig(),
		faults: []string{"", "drop=0.3,seed=4", "drop=0.5,burst=0.3,flicker=0.2,seed=9",
			"splice=0.3,truncate=0.2,occlude=0.2,clip=0.1"}[rng.Intn(4)],
	}
	if rng.Intn(2) == 0 {
		c.cam.TimingJitter = time.Duration(rng.Intn(6)) * time.Millisecond
	}
	c.chanCfg.Seed = rng.Int63()
	c.chanCfg.DistanceCM = 6 + 10*rng.Float64()
	return c
}

// filmed is one capture reduced to comparable values.
type filmed struct {
	pix           []colorspace.RGB
	start         time.Duration
	sourceFrames  []int
	rowBoundaries []int
	mixed         bool
}

func keep(c Capture) filmed {
	return filmed{
		pix:           append([]colorspace.RGB(nil), c.Image.Pix...),
		start:         c.Start,
		sourceFrames:  c.SourceFrames,
		rowBoundaries: c.RowBoundaries,
		mixed:         c.Mixed(),
	}
}

// run films the case twice on identically built links: collected by Film
// from a display over pre-rendered frames, and streamed by FilmEach from a
// display that renders on demand, with every capture recycled as soon as
// it is copied. It returns both capture lists, a probe image each link's
// channel produced afterwards (equal only if both left the channel PRNG in
// the same place), and both fault chains.
func (c streamCase) run(t *testing.T) (collected, streamed []filmed, probes [2]*raster.Image, chains [2]*faults.Chain) {
	t.Helper()
	links := [2]struct {
		cam Camera
		ch  *channel.Channel
	}{}
	for i := range links {
		chain, err := faults.ParseSpec(c.faults)
		if err != nil {
			t.Fatal(err)
		}
		links[i].cam = c.cam
		links[i].cam.Faults = chain
		links[i].ch = channel.MustNew(c.chanCfg)
		chains[i] = chain
	}

	frames := make([]*raster.Image, c.frames)
	for i := range frames {
		frames[i] = patternFrame(i, c.w, c.h)
	}
	eager, err := screen.NewDisplay(frames, c.displayRate, 0)
	if err != nil {
		t.Fatal(err)
	}
	eager.Transition = c.transition
	caps, err := links[0].cam.Film(eager, links[0].ch)
	if err != nil {
		t.Fatal(err)
	}
	for _, cp := range caps {
		collected = append(collected, keep(cp))
	}

	lazy, err := screen.NewRenderedDisplay(c.frames, c.w, c.h, func(i int) *raster.Image { return patternFrame(i, c.w, c.h) }, c.displayRate, 0)
	if err != nil {
		t.Fatal(err)
	}
	lazy.Transition = c.transition
	if err := links[1].cam.FilmEach(lazy, links[1].ch, func(cp Capture) error {
		streamed = append(streamed, keep(cp))
		raster.Recycle(cp.Image)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if lazy.Resident() != 0 {
		t.Fatalf("%v: %d rendered frames still held after filming", c, lazy.Resident())
	}

	probe := patternFrame(0, c.w, c.h)
	for i := range links {
		probes[i] = links[i].ch.Photometric(probe)
	}
	return collected, streamed, probes, chains
}

// TestFilmEachMatchesFilm: filming a display that renders on demand and
// recycling each capture as it arrives yields exactly the captures Film
// collects from pre-rendered frames — pixels, start, source frames and row
// boundaries, in order — and leaves the channel PRNG and the fault chain
// where Film leaves them, across generated rates, frame counts,
// transitions, jitter and fault chains (drops included).
func TestFilmEachMatchesFilm(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	cases := 120
	if testing.Short() {
		cases = 30
	}
	sawDrop, sawMixed := false, false
	for range cases {
		c := genStreamCase(rng)
		collected, streamed, probes, chains := c.run(t)
		if !reflect.DeepEqual(collected, streamed) {
			t.Fatalf("%v: %d streamed captures differ from %d collected", c, len(streamed), len(collected))
		}
		if !reflect.DeepEqual(probes[0].Pix, probes[1].Pix) {
			t.Fatalf("%v: streaming left the channel PRNG elsewhere", c)
		}
		if !reflect.DeepEqual(chains[0].Counters(), chains[1].Counters()) || chains[0].Drops() != chains[1].Drops() {
			t.Fatalf("%v: fault chains diverged: %v vs %v", c, chains[0].Counters(), chains[1].Counters())
		}
		sawDrop = sawDrop || chains[0].Drops() > 0
		for _, f := range collected {
			sawMixed = sawMixed || f.mixed
		}
	}
	if !sawDrop || !sawMixed {
		t.Fatalf("generator never produced a drop (%v) or a mixed capture (%v)", sawDrop, sawMixed)
	}
}

// TestFilmEachBoundsResidentFrames: filming a display that renders on
// demand draws each frame at most once, and the frames it holds at once
// stay under a bound set by the display rate, the readout and the
// transition alone — the same at 8 frames as at 200.
func TestFilmEachBoundsResidentFrames(t *testing.T) {
	configs := []struct {
		displayRate float64
		transition  time.Duration
		cam         Camera
	}{
		{10, screen.DefaultTransition, Default()},
		{30, screen.DefaultTransition, Default()},
		{60, 40 * time.Millisecond, Default()},
		{25, screen.DefaultTransition, Camera{RateFPS: 60, ReadoutFraction: 1, TimingJitter: 2 * time.Millisecond, Seed: 3}},
	}
	for _, cfg := range configs {
		readout := time.Duration(float64(cfg.cam.Period()) * cfg.cam.ReadoutFraction)
		bound := int(math.Ceil((readout+cfg.transition).Seconds()*cfg.displayRate)) + 2
		for _, n := range []int{8, 200} {
			renders := make([]int, n)
			peak := 0
			var d *screen.Display
			d, err := screen.NewRenderedDisplay(n, 24, 16, func(i int) *raster.Image {
				renders[i]++
				peak = max(peak, d.Resident()+1)
				return patternFrame(i, 24, 16)
			}, cfg.displayRate, 0)
			if err != nil {
				t.Fatal(err)
			}
			d.Transition = cfg.transition
			if err := cfg.cam.FilmEach(d, cleanChannel(), func(c Capture) error {
				raster.Recycle(c.Image)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i, r := range renders {
				if r > 1 {
					t.Fatalf("%d frames at %.0f fps: frame %d rendered %d times", n, cfg.displayRate, i, r)
				}
			}
			if peak > bound {
				t.Fatalf("%d frames at %.0f fps: %d frames resident at once, bound %d", n, cfg.displayRate, peak, bound)
			}
			if d.Resident() != 0 {
				t.Fatalf("%d frames at %.0f fps: %d frames held after filming", n, cfg.displayRate, d.Resident())
			}
		}
	}
}

// TestFilmEachStopsOnCallbackError: an error from the callback ends
// filming at once and comes back unchanged, and the display releases the
// frames it rendered.
func TestFilmEachStopsOnCallbackError(t *testing.T) {
	d, err := screen.NewRenderedDisplay(6, 40, 40, func(i int) *raster.Image { return patternFrame(i, 40, 40) }, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	calls := 0
	err = Default().FilmEach(d, cleanChannel(), func(Capture) error {
		calls++
		if calls == 3 {
			return stop
		}
		return nil
	})
	if err != stop || calls != 3 {
		t.Fatalf("FilmEach returned %v after %d captures, want the callback's error after 3", err, calls)
	}
	if d.Resident() != 0 {
		t.Fatalf("%d frames held after an aborted film", d.Resident())
	}
}
