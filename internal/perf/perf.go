// Package perf runs the decode-path kernel benchmarks programmatically and
// serializes the results as a schema'd JSON snapshot. The repo commits one
// snapshot per perf-focused PR as BENCH_<n>.json (see scripts/bench.sh), so
// the performance trajectory is data the next change can be compared
// against, not prose in CHANGES.md.
//
// The kernel set mirrors the hot decode path: classification
// (ClassifyRGB/ClassifyRGBSoft/ToHSV), sampling (MeanFilterAt, Sharpness),
// the per-capture pipeline (FixImage, DecodeGrid, DecodeFrame,
// AssemblePayload) and the receiver loop (fresh-receiver and steady-state
// variants, plus the batched ingest). The camera_film kernels time the
// simulated link a transfer films through, camera_surround the one-off
// certification of a channel's dark surround, and transport_round one
// whole streamed round of the session path. Snapshots from different hosts
// are not comparable — the header records CPU count and git revision so a
// reader can tell.
package perf

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os/exec"
	"runtime"
	"strings"
	"testing"

	"rainbar/internal/camera"
	"rainbar/internal/channel"
	"rainbar/internal/colorspace"
	"rainbar/internal/core"
	"rainbar/internal/core/layout"
	"rainbar/internal/raster"
	"rainbar/internal/screen"
	"rainbar/internal/transport"
)

// Schema identifies the snapshot layout; bump when fields change meaning.
const Schema = "rainbar-perf/1"

// Result is one benchmark outcome.
type Result struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// ServeStats summarizes a rainbar-serve loadtest run (the
// internal/serve/loadgen harness): fleet-level throughput and simulated
// round-latency percentiles. Snapshots written by `rainbar-serve
// -loadtest -perf-json` carry one alongside (or instead of) the kernel
// results.
type ServeStats struct {
	Fleet           int     `json:"fleet"`
	Workers         int     `json:"workers"`
	Completed       int     `json:"completed"`
	Failed          int     `json:"failed"`
	Rounds          int     `json:"rounds"`
	SessionsPerSec  float64 `json:"sessions_per_sec"`
	P50RoundSeconds float64 `json:"p50_round_seconds"`
	P99RoundSeconds float64 `json:"p99_round_seconds"`
	BytesPerSession float64 `json:"bytes_per_session"`
	// Fsync and JournalRecords are set on journaled (durable) runs only:
	// the journal fsync policy under which the run was measured and the
	// number of records it appended.
	Fsync          string `json:"fsync,omitempty"`
	JournalRecords int    `json:"journal_records,omitempty"`
}

// Snapshot is a full benchmark run plus the host/build context needed to
// interpret it.
type Snapshot struct {
	Schema     string   `json:"schema"`
	GitRev     string   `json:"git_rev"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Benchtime  string   `json:"benchtime,omitempty"`
	Results    []Result `json:"results,omitempty"`
	// Serve is present on serve-loadtest snapshots only.
	Serve *ServeStats `json:"serve,omitempty"`
	// ServeFsync is present on `rainbar-serve -loadtest -fsync-sweep`
	// snapshots: the same fleet measured once per journal fsync policy,
	// keyed "always" / "interval" / "off" — the durability cost curve.
	ServeFsync map[string]*ServeStats `json:"serve_fsync,omitempty"`
}

// Describe returns a snapshot carrying only host/build context (no kernel
// results), for harnesses that fill in their own sections.
func Describe() *Snapshot {
	return &Snapshot{
		Schema:     Schema,
		GitRev:     gitRev(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// WriteJSON writes the snapshot as indented JSON with a trailing newline.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Collect runs every registered kernel benchmark and returns the snapshot.
// benchtime accepts the testing package's -benchtime syntax ("1s", "100x");
// empty keeps the 1s default. Longer benchtimes reduce noise.
func Collect(benchtime string) (*Snapshot, error) {
	testing.Init()
	if benchtime == "" {
		benchtime = "1s"
	}
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return nil, fmt.Errorf("perf: benchtime %q: %w", benchtime, err)
	}
	s := Describe()
	s.Benchtime = benchtime
	for _, k := range kernels {
		fn, err := k.setup()
		if err != nil {
			return nil, fmt.Errorf("perf: %s: %w", k.name, err)
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
		s.Results = append(s.Results, Result{
			Name:        k.name,
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	return s, nil
}

// gitRev reports the short revision of the tree being measured, with a
// "-dirty" suffix when it differs from that commit by uncommitted changes
// to tracked files (a snapshot taken before its change is committed names
// the parent plus that change), or "unknown" outside a git checkout.
func gitRev() string {
	out, err := exec.Command("git", "describe", "--always", "--abbrev=7", "--dirty", "--exclude=*").Output() // --exclude: a hash, never a tag name
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// kernel names one benchmark; setup builds its scenario once (errors out of
// the timed region) and returns the loop body.
type kernel struct {
	name  string
	setup func() (func(b *testing.B), error)
}

var (
	sinkCaps  []camera.Capture
	sinkColor colorspace.Color
	sinkFloat float64
	sinkHSV   colorspace.HSV
	sinkRGB   colorspace.RGB
	sinkRows  []int32
)

// perfImage builds the deterministic 640x360 block-structured frame the
// raster benchmarks use.
func perfImage() *raster.Image {
	img := raster.New(640, 360)
	palette := []colorspace.RGB{
		colorspace.RGBWhite, colorspace.RGBRed,
		colorspace.RGBGreen, colorspace.RGBBlue, colorspace.RGBBlack,
	}
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			img.Pix[y*img.W+x] = palette[((x/12)+3*(y/12))%len(palette)]
		}
	}
	return img
}

// perfCodec mirrors the core test codec: 480x270 at 10 px -> 48x27 grid.
func perfCodec() (*core.Codec, error) {
	g, err := layout.NewGeometry(480, 270, 10)
	if err != nil {
		return nil, err
	}
	return core.NewCodec(core.Config{Geometry: g, DisplayRate: 10, AppType: 1})
}

func perfPayload(c *core.Codec, seed int64) []byte {
	data := make([]byte, c.FrameCapacity())
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// perfCapture renders one frame and passes it through the default channel.
func perfCapture(c *core.Codec) (*raster.Image, error) {
	f, err := c.EncodeFrame(perfPayload(c, 1), 0, false)
	if err != nil {
		return nil, err
	}
	return channel.MustNew(channel.DefaultConfig()).Capture(f.Render())
}

// capturePixels returns the 3x3 mean-filtered capture pixels of every
// data cell's block of perfCapture's filmed frame: about 106,000 noisy
// samples around the five code colours, too many for a branch predictor to
// learn their order. colorspace's BenchmarkClassifyCapturePixels builds
// the same set.
func capturePixels() ([]colorspace.RGB, error) {
	c, err := perfCodec()
	if err != nil {
		return nil, err
	}
	capt, err := perfCapture(c)
	if err != nil {
		return nil, err
	}
	g := c.Geometry()
	bs := g.BlockSize()
	var px []colorspace.RGB
	for _, cell := range g.DataCells() {
		for y := cell.Row * bs; y < (cell.Row+1)*bs; y++ {
			for x := cell.Col * bs; x < (cell.Col+1)*bs; x++ {
				px = append(px, capt.MeanFilterAt(x, y))
			}
		}
	}
	return px, nil
}

// perfBatch builds the 4-capture burst the receiver benchmarks ingest.
func perfBatch(c *core.Codec) ([]*raster.Image, error) {
	ch := channel.MustNew(channel.DefaultConfig())
	caps := make([]*raster.Image, 4)
	for i := range caps {
		f, err := c.EncodeFrame(perfPayload(c, int64(i)), uint16(i), false)
		if err != nil {
			return nil, err
		}
		caps[i], err = ch.Capture(f.Render())
		if err != nil {
			return nil, err
		}
	}
	return caps, nil
}

// filmKernel films four rendered 640x360 frames (12 px blocks, the
// transfer benchmark's geometry) shown at 10 fps with the default LCD
// transition through the default camera, with the default channel at the
// given distance: about 13 captures, some straddling a frame switch.
// At 12 cm a dark surround frames the screen; at 6 cm the screen fills the
// capture, so fewer blur windows are one colour.
func filmKernel(distanceCM float64) func() (func(*testing.B), error) {
	return func() (func(*testing.B), error) {
		g, err := layout.NewGeometry(640, 360, 12)
		if err != nil {
			return nil, err
		}
		c, err := core.NewCodec(core.Config{Geometry: g, DisplayRate: 10, AppType: 1})
		if err != nil {
			return nil, err
		}
		frames := make([]*raster.Image, 4)
		for i := range frames {
			f, err := c.EncodeFrame(perfPayload(c, int64(i)), uint16(i), i == len(frames)-1)
			if err != nil {
				return nil, err
			}
			frames[i] = f.Render()
		}
		d, err := screen.NewDisplay(frames, 10, 0)
		if err != nil {
			return nil, err
		}
		d.Transition = screen.DefaultTransition
		cfg := channel.DefaultConfig()
		cfg.DistanceCM = distanceCM
		cam := camera.Default()
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ch, err := channel.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if sinkCaps, err = cam.Film(d, ch); err != nil {
					b.Fatal(err)
				}
			}
		}, nil
	}
}

// surroundKernel certifies the dark surround of a new default channel
// (12 cm, head-on) for 640x360 captures: the cost a Channel pays once, on
// its first capture of a size.
func surroundKernel() (func(*testing.B), error) {
	cfg := channel.DefaultConfig()
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ch, err := channel.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			sinkRows, _ = ch.Surround(640, 360)
		}
	}, nil
}

// roundKernel plays one transport round of six 640x360 frames (12 px
// blocks) at 10 fps through the session path: encode, on-demand render,
// film through the default channel and camera, and windowed decode into
// the collector. The session is reset before every round, so each op
// films the same captures.
func roundKernel() (func(*testing.B), error) {
	g, err := layout.NewGeometry(640, 360, 12)
	if err != nil {
		return nil, err
	}
	c, err := core.NewCodec(core.Config{Geometry: g, DisplayRate: 10, AppType: 1})
	if err != nil {
		return nil, err
	}
	ch, err := channel.New(channel.DefaultConfig())
	if err != nil {
		return nil, err
	}
	s := &transport.Session{Codec: c, Link: transport.Link{Channel: ch, Camera: camera.Default(), DisplayRate: 10}}
	fc := transport.FileCodec{Codec: c}
	data := make([]byte, 5*fc.ChunkSize()+1)
	rand.New(rand.NewSource(6)).Read(data)
	if n := fc.NumChunks(len(data)); n != 6 {
		return nil, fmt.Errorf("perf: round payload splits into %d frames, want 6", n)
	}
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Reset()
			x, err := s.Begin(data)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := x.Step(); err != nil {
				b.Fatal(err)
			}
		}
	}, nil
}

var kernels = []kernel{
	// The classify kernels time one pixel per op, cycling through a
	// filmed capture's cell pixels (capturePixels): ns/op is ns per pixel.
	{"classify_capture_px", func() (func(*testing.B), error) {
		px, err := capturePixels()
		cl := colorspace.NewClassifier(colorspace.DefaultTV)
		return func(b *testing.B) {
			for i, j := 0, 0; i < b.N; i, j = i+1, (j+1)%len(px) {
				sinkColor = cl.ClassifyRGB(px[j])
			}
		}, err
	}},
	{"classify_soft_capture_px", func() (func(*testing.B), error) {
		px, err := capturePixels()
		cl := colorspace.NewClassifier(colorspace.DefaultTV)
		return func(b *testing.B) {
			for i, j := 0, 0; i < b.N; i, j = i+1, (j+1)%len(px) {
				sinkColor, sinkFloat = cl.ClassifyRGBSoft(px[j])
			}
		}, err
	}},
	{"to_hsv_capture_px", func() (func(*testing.B), error) {
		px, err := capturePixels()
		return func(b *testing.B) {
			for i, j := 0, 0; i < b.N; i, j = i+1, (j+1)%len(px) {
				sinkHSV = px[j].ToHSV()
			}
		}, err
	}},
	{"mean_filter_at", func() (func(*testing.B), error) {
		img := perfImage()
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkRGB = img.MeanFilterAt(320, 180)
			}
		}, nil
	}},
	{"sharpness", func() (func(*testing.B), error) {
		img := perfImage()
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkFloat = img.Sharpness()
			}
		}, nil
	}},
	{"fix_image", func() (func(*testing.B), error) {
		c, err := perfCodec()
		if err != nil {
			return nil, err
		}
		capt, err := perfCapture(c)
		if err != nil {
			return nil, err
		}
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.FixImage(capt); err != nil {
					b.Fatal(err)
				}
			}
		}, nil
	}},
	{"decode_grid", func() (func(*testing.B), error) {
		c, err := perfCodec()
		if err != nil {
			return nil, err
		}
		capt, err := perfCapture(c)
		if err != nil {
			return nil, err
		}
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.DecodeGrid(capt); err != nil {
					b.Fatal(err)
				}
			}
		}, nil
	}},
	{"decode_frame", func() (func(*testing.B), error) {
		c, err := perfCodec()
		if err != nil {
			return nil, err
		}
		capt, err := perfCapture(c)
		if err != nil {
			return nil, err
		}
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := c.DecodeFrame(capt); err != nil {
					b.Fatal(err)
				}
			}
		}, nil
	}},
	{"assemble_payload", func() (func(*testing.B), error) {
		c, err := perfCodec()
		if err != nil {
			return nil, err
		}
		capt, err := perfCapture(c)
		if err != nil {
			return nil, err
		}
		gd, err := c.DecodeGrid(capt)
		if err != nil {
			return nil, err
		}
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.AssemblePayload(gd.Cells, gd.Header); err != nil {
					b.Fatal(err)
				}
			}
		}, nil
	}},
	{"receiver_process", func() (func(*testing.B), error) {
		// Fresh receiver per op: construction plus the 4-capture batch.
		// Kept across snapshots as the apples-to-apples receiver series.
		c, err := perfCodec()
		if err != nil {
			return nil, err
		}
		caps, err := perfBatch(c)
		if err != nil {
			return nil, err
		}
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rx := core.NewReceiver(c)
				for _, capt := range caps {
					if err := rx.Ingest(capt); err != nil {
						b.Fatal(err)
					}
				}
				rx.Flush()
			}
		}, nil
	}},
	{"receiver_process_steady", func() (func(*testing.B), error) {
		// One long-lived receiver recycled with Reset between batches: the
		// steady state of a continuously-running receiver, where every decode
		// intermediate comes from scratch buffers. The hot-path memory
		// contract (DESIGN.md §11) pins this kernel at 0 allocs/op.
		c, err := perfCodec()
		if err != nil {
			return nil, err
		}
		caps, err := perfBatch(c)
		if err != nil {
			return nil, err
		}
		rx := core.NewReceiver(c)
		process := func(b *testing.B) {
			for _, capt := range caps {
				if err := rx.Ingest(capt); err != nil {
					b.Fatal(err)
				}
			}
			rx.Flush()
			rx.Reset()
		}
		return func(b *testing.B) {
			process(b) // warm scratch buffers and freelists
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				process(b)
			}
		}, nil
	}},
	{"receiver_ingest_batch", func() (func(*testing.B), error) {
		// The batched front end: grid decodes fan out across cores, merge
		// stays sequential in capture order (bit-identical to Ingest).
		c, err := perfCodec()
		if err != nil {
			return nil, err
		}
		caps, err := perfBatch(c)
		if err != nil {
			return nil, err
		}
		rx := core.NewReceiver(c)
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, err := range rx.IngestBatch(caps) {
					if err != nil {
						b.Fatal(err)
					}
				}
				rx.Flush()
				rx.Reset()
			}
		}, nil
	}},
	{"camera_film", filmKernel(channel.ReferenceDistanceCM)},
	{"camera_film_close", filmKernel(6)},
	{"camera_surround", surroundKernel},
	{"transport_round", roundKernel},
}
