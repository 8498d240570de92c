package experiment

import (
	"bytes"
	"math/rand"
	"time"

	"rainbar/internal/camera"
	"rainbar/internal/channel"
	"rainbar/internal/core"
	"rainbar/internal/core/layout"
	"rainbar/internal/geometry"
	"rainbar/internal/raster"
	"rainbar/internal/screen"
)

// pt builds a geometry.Point (keeps experiment code terse).
func pt(x, y float64) geometry.Point { return geometry.Point{X: x, Y: y} }

// cameraDefault returns the paper's receiver camera.
func cameraDefault() camera.Camera { return camera.Default() }

// runStreamSync runs the RainBar stream pipeline with the tracking-bar
// synchronization optionally disabled (the E16 ablation) and returns the
// decoding rate.
func runStreamSync(o Options, fps float64, disableSync bool, seed int64) (float64, error) {
	geo, err := layout.NewGeometry(o.Scale.ScreenW, o.Scale.ScreenH, defaultBlock)
	if err != nil {
		return 0, err
	}
	codec, err := core.NewCodec(core.Config{Geometry: geo, DisplayRate: uint8(fps), Recorder: o.Recorder})
	if err != nil {
		return 0, err
	}
	cfg := baseChannel()
	cfg.Seed = seed
	ch, err := channel.New(cfg)
	if err != nil {
		return 0, err
	}
	ch.Recorder = o.Recorder
	rng := rand.New(rand.NewSource(seed))

	// Warmup/cooldown frames bracket the measured window (see RunStream).
	n := o.Scale.Frames
	total := n + 2
	payloads := make([][]byte, total)
	frames := make([]*raster.Image, total)
	for i := 0; i < total; i++ {
		payloads[i] = make([]byte, codec.FrameCapacity())
		rng.Read(payloads[i])
		f, err := codec.EncodeFrame(payloads[i], uint16(i), false)
		if err != nil {
			return 0, err
		}
		frames[i] = f.Render()
	}
	disp, err := screen.NewDisplay(frames, fps, 0)
	if err != nil {
		return 0, err
	}
	disp.Transition = screen.DefaultTransition
	cam := cameraDefault()
	cam.TimingJitter = 3 * time.Millisecond
	cam.Seed = seed
	cam.Phase = time.Duration(seed%23) * time.Millisecond
	caps, err := cam.Film(disp, ch)
	if err != nil {
		return 0, err
	}
	rx := core.NewReceiver(codec)
	rx.DisableSync = disableSync
	imgs := make([]*raster.Image, len(caps))
	for i := range caps {
		imgs[i] = caps[i].Image
	}
	// Batched ingest: grid decodes fan out across cores, merge order stays
	// capture order, so results are bit-identical to sequential Ingest.
	_ = rx.IngestBatch(imgs)
	rx.Flush()

	recovered := 0
	for i := 1; i <= n; i++ {
		f, ok := rx.Frame(uint16(i))
		if ok && f.Err == nil && bytes.Equal(f.Payload, payloads[i]) {
			recovered += len(payloads[i])
		}
	}
	return float64(recovered) / float64(n*codec.FrameCapacity()), nil
}
