// Package channel simulates the screen-to-camera optical channel that the
// paper's evaluation exercises on real phones (§II, §IV). It replaces the
// physical Galaxy S4 screen/camera pair with a deterministic, seeded model
// of the same impairments, each mapped to an evaluation axis:
//
//   - distance (d)            -> projected scale (pinhole model)
//   - view angle (v_a)        -> perspective homography
//   - lens distortion         -> radial model
//   - focus/motion blur       -> Gaussian + horizontal box kernels
//   - screen brightness (s_b) -> linear intensity scaling
//   - indoor/outdoor ambient  -> additive veiling light + contrast loss
//   - sensor noise            -> additive Gaussian per channel
//
// Every capture runs through one streaming row pipeline (film.go): an
// optical stage (geometry, LCD blend, blur) feeding a sensor stage
// (brightness, ambient light, noise). A row plan says which frame each
// captured row shows, so the rolling-shutter camera model mixes frames
// row by row under one capture geometry, before the shared sensor pass.
package channel

import (
	"fmt"
	"math"
	"math/rand"

	"rainbar/internal/faults"
	"rainbar/internal/geometry"
	"rainbar/internal/obs"
	"rainbar/internal/raster"
)

// Ambient identifies the lighting environment of a capture.
type Ambient int

// Ambient environments from the paper's evaluation (indoor default;
// outdoor notably degrades decoding, Fig. 10).
const (
	AmbientIndoor Ambient = iota + 1
	AmbientOutdoor
	AmbientDark
)

// String returns the environment name.
func (a Ambient) String() string {
	switch a {
	case AmbientIndoor:
		return "indoor"
	case AmbientOutdoor:
		return "outdoor"
	case AmbientDark:
		return "dark"
	default:
		return "unknown"
	}
}

// veil returns the additive ambient level (0..255) and the contrast factor
// the environment imposes on the captured screen.
func (a Ambient) veil() (level float64, contrast float64) {
	switch a {
	case AmbientOutdoor:
		return 46, 0.76 // strong veiling glare washes out the screen
	case AmbientDark:
		return 0, 1.0
	default: // indoor
		return 12, 0.95
	}
}

// ReferenceDistanceCM is the paper's default sender-receiver distance.
const ReferenceDistanceCM = 12.0

// Config describes one capture condition. The zero value is not useful;
// start from DefaultConfig and override fields.
type Config struct {
	// DistanceCM is the screen-camera distance (paper default 12 cm).
	// Larger distances shrink the projected screen.
	DistanceCM float64
	// ViewAngleDeg is the angle between screen normal and camera axis.
	ViewAngleDeg float64
	// ScreenBrightness is the sender's screen brightness in [0, 1].
	ScreenBrightness float64
	// Ambient is the lighting environment.
	Ambient Ambient
	// BlurSigma is the defocus blur standard deviation in pixels at the
	// reference distance; effective blur grows mildly with distance.
	BlurSigma float64
	// MotionBlurPx is the handshake motion-blur kernel length in pixels
	// (0 or 1 disables).
	MotionBlurPx int
	// NoiseStdDev is the per-pixel sensor noise standard deviation in
	// 8-bit counts.
	NoiseStdDev float64
	// ChromaNoiseStdDev is spatially correlated per-channel noise (8-bit
	// counts): demosaicing and compression artifacts vary smoothly over
	// patches of ChromaNoiseScalePx pixels, so unlike per-pixel noise they
	// survive the decoder's mean filter. 0 disables.
	ChromaNoiseStdDev float64
	// ChromaNoiseScalePx is the blotch size of the correlated noise
	// (default 8 px when ChromaNoiseStdDev > 0).
	ChromaNoiseScalePx int
	// LensK1, LensK2 are radial distortion coefficients (see geometry).
	LensK1, LensK2 float64
	// JitterPx randomly translates the projection per capture, modeling
	// hand shake between frames.
	JitterPx float64
	// Seed makes every capture sequence deterministic.
	Seed int64
}

// DefaultConfig returns the paper's default working condition: 12 cm,
// head-on, full brightness, indoors, mild blur/noise/lens distortion.
func DefaultConfig() Config {
	return Config{
		DistanceCM:       ReferenceDistanceCM,
		ViewAngleDeg:     0,
		ScreenBrightness: 1.0,
		Ambient:          AmbientIndoor,
		BlurSigma:        0.8,
		NoiseStdDev:      3.0,
		LensK1:           0.015,
		LensK2:           0.002,
		JitterPx:         0.6,
		Seed:             1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.DistanceCM <= 0 {
		return fmt.Errorf("channel: distance %.2f cm must be positive", c.DistanceCM)
	}
	if c.ScreenBrightness < 0 || c.ScreenBrightness > 1 {
		return fmt.Errorf("channel: brightness %.2f out of [0, 1]", c.ScreenBrightness)
	}
	if c.ViewAngleDeg < -60 || c.ViewAngleDeg > 60 {
		return fmt.Errorf("channel: view angle %.1f° out of [-60, 60]", c.ViewAngleDeg)
	}
	return nil
}

// scale converts distance into projected size: the projection is sized so
// the screen nearly fills the capture at 8 cm — with margin for lens
// distortion and hand jitter at the corners — and shrinks in proportion
// (pinhole model).
func (c Config) scale() float64 {
	return 0.92 * 8.0 / c.DistanceCM
}

// effectiveBlurSigma grows defocus mildly as the subject leaves the focal
// plane at the reference distance.
func (c Config) effectiveBlurSigma() float64 {
	d := math.Abs(c.DistanceCM-ReferenceDistanceCM) / ReferenceDistanceCM
	return c.BlurSigma * (1 + 0.7*d)
}

// ForwardMap returns the exact screen-to-capture geometric mapping of this
// condition with zero jitter: perspective projection followed by the
// inverse of the lens model (the warp samples capture pixels by applying
// the lens model forward, so the true forward map inverts it by fixed-
// point iteration). Ground-truth localization experiments (Fig. 3/4)
// compare decoder estimates against this map.
func (c Config) ForwardMap(w, h int) (func(geometry.Point) geometry.Point, error) {
	hom, err := geometry.PerspectiveView(float64(w), float64(h), c.ViewAngleDeg, c.scale(), 0, 0)
	if err != nil {
		return nil, fmt.Errorf("channel forward map: %w", err)
	}
	lens := captureLens(c, w, h)
	return func(p geometry.Point) geometry.Point {
		target := hom.Apply(p)
		// Solve lens.Apply(q) == target by fixed-point iteration
		// q <- center + (target - center) / f(|q - center|).
		q := target
		for i := 0; i < 20; i++ {
			mapped := lens.Apply(q)
			next := q.Add(target.Sub(mapped))
			if next.Dist(q) < 1e-6 {
				return next
			}
			q = next
		}
		return q
	}, nil
}

// Channel applies a capture condition to rendered frames. Each Channel has
// its own PRNG stream; captures mutate that stream, so a Channel is not
// safe for concurrent use (clone one per goroutine via New).
type Channel struct {
	cfg Config
	rng *rand.Rand

	kernel []float64 // the condition's defocus taps, once computed

	// surround is the certified dark surround of the last capture size
	// filmed through the geometry (surround.go), built on first use.
	surround surround

	// Faults is an optional injector chain run on every Capture after the
	// photometric stage (nil disables). Fault decisions for capture k are a
	// pure function of (chain seed, k) — see internal/faults — so they stay
	// reproducible even though the channel's own PRNG is sequential.
	Faults *faults.Chain

	// Recorder, when set, counts channel activity (captures, photometric
	// passes). Pixel output never depends on it.
	Recorder obs.Recorder

	// captures counts Capture calls, indexing the fault chain.
	captures int
}

// New creates a channel for the given condition.
func New(cfg Config) (*Channel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Determinism contract (RB-D2): locally seeded *rand.Rand — the noise
	// stream is a pure function of cfg.Seed, never of global or
	// time-seeded state.
	return &Channel{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// MustNew is New but panics on invalid configuration; for tests and
// literal configs.
func MustNew(cfg Config) *Channel {
	ch, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return ch
}

// Config returns the channel's condition.
func (ch *Channel) Config() Config { return ch.cfg }

// Reset rewinds the channel to its just-constructed state: the private
// PRNG is reseeded from the configured seed and the capture counter that
// indexes the fault chain is zeroed. After Reset the next capture sequence
// is bit-identical to a freshly built channel's, which is what lets a
// long-lived transport session run back-to-back transfers reproducibly.
func (ch *Channel) Reset() {
	// Determinism contract (RB-D2): locally seeded *rand.Rand, same as New.
	ch.rng = rand.New(rand.NewSource(ch.cfg.Seed))
	ch.captures = 0
}

// Capture runs the full pipeline on a single displayed frame: geometry
// then photometrics, then the optional fault-injection chain. This is what
// a global-shutter camera (or a rolling-shutter camera with f_d <= f_c/2
// and aligned timing) would produce. When the fault chain drops the
// capture, Capture returns faults.ErrFrameDropped.
func (ch *Channel) Capture(frame *raster.Image) (*raster.Image, error) {
	if obs.Enabled(ch.Recorder) {
		ch.Recorder.Inc(obs.MChannelCaptures, 1)
	}
	rows := make([]Row, frame.H)
	for y := range rows {
		rows[y].B = frame
	}
	out, err := ch.CaptureRows(rows)
	if err != nil {
		return nil, err
	}
	idx := ch.captures
	ch.captures++
	if !ch.Faults.Apply(out, idx) {
		raster.Recycle(out)
		return nil, ErrFrameDropped
	}
	return out, nil
}

// ErrFrameDropped aliases faults.ErrFrameDropped so channel callers can
// test for injected whole-frame loss without importing faults.
var ErrFrameDropped = faults.ErrFrameDropped
