package cobra

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"rainbar/internal/camera"
	"rainbar/internal/channel"
	"rainbar/internal/raster"
	"rainbar/internal/screen"
)

// film renders n frames and films them at fps through a mild channel.
func film(t *testing.T, c *Codec, n int, fps float64, seed int64) ([][]byte, []camera.Capture) {
	t.Helper()
	cfg := channel.DefaultConfig()
	cfg.Seed = seed
	ch := channel.MustNew(cfg)
	rng := rand.New(rand.NewSource(seed))
	payloads := make([][]byte, n)
	frames := make([]*raster.Image, n)
	for i := 0; i < n; i++ {
		payloads[i] = make([]byte, c.FrameCapacity())
		rng.Read(payloads[i])
		f, err := c.EncodeFrame(payloads[i], uint16(i), i == n-1)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = f.Render()
	}
	disp, err := screen.NewDisplay(frames, fps, 0)
	if err != nil {
		t.Fatal(err)
	}
	disp.Transition = screen.DefaultTransition
	cam := camera.Default()
	cam.TimingJitter = 3 * time.Millisecond
	cam.Seed = seed
	caps, err := cam.Film(disp, ch)
	if err != nil {
		t.Fatal(err)
	}
	return payloads, caps
}

func countRecovered(rx *Receiver, payloads [][]byte) int {
	n := 0
	for _, f := range rx.Frames() {
		i := int(f.Header.Seq)
		if i < len(payloads) && f.Err == nil && bytes.Equal(f.Payload, payloads[i]) {
			n++
		}
	}
	return n
}

func TestReceiverPairingAtHalfRate(t *testing.T) {
	// At f_d = f_c/2 = 15 the pairing assumption holds: every pair shows
	// one frame twice and (almost) everything decodes.
	c := testCodec(t)
	payloads, caps := film(t, c, 6, 15, 1)
	rx := NewReceiver(c)
	for i := range caps {
		_ = rx.Ingest(caps[i].Image)
	}
	rx.Flush()
	if got := countRecovered(rx, payloads); got < len(payloads)-1 {
		t.Fatalf("recovered %d/%d at f_d = f_c/2", got, len(payloads))
	}
}

func TestReceiverPairingLosesFramesPastHalfRate(t *testing.T) {
	// Past f_c/2 the pairing drifts: pairs straddle display frames and the
	// discarded capture may hold the only clean look at a frame. Across
	// several seeds COBRA must lose strictly more frames at f_d = 24 than
	// at f_d = 12.
	c := testCodec(t)
	lostAt := func(fps float64) int {
		lost := 0
		for seed := int64(1); seed <= 4; seed++ {
			payloads, caps := film(t, c, 6, fps, seed)
			rx := NewReceiver(c)
			for i := range caps {
				_ = rx.Ingest(caps[i].Image)
			}
			rx.Flush()
			lost += len(payloads) - countRecovered(rx, payloads)
		}
		return lost
	}
	slow := lostAt(12)
	fast := lostAt(24)
	if fast <= slow {
		t.Fatalf("pairing loss did not grow past f_c/2: lost %d at 12 fps vs %d at 24 fps", slow, fast)
	}
}

func TestReceiverFlushHandlesOddCapture(t *testing.T) {
	c := testCodec(t)
	payloads, caps := film(t, c, 2, 10, 3)
	rx := NewReceiver(c)
	// Feed an odd number of captures: the trailing one must be processed
	// by Flush, not dropped.
	odd := len(caps)
	if odd%2 == 0 {
		odd--
	}
	for i := 0; i < odd; i++ {
		_ = rx.Ingest(caps[i].Image)
	}
	rx.Flush()
	if got := countRecovered(rx, payloads); got == 0 {
		t.Fatal("nothing recovered from an odd capture stream")
	}
}
