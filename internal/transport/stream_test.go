package transport

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"rainbar/internal/camera"
	"rainbar/internal/channel"
	"rainbar/internal/colorspace"
	"rainbar/internal/core"
	"rainbar/internal/core/layout"
	"rainbar/internal/faults"
	"rainbar/internal/raster"
	"rainbar/internal/screen"
	"rainbar/internal/workload"
)

// eagerRound is the display round as it ran before rounds streamed: it
// renders every frame, films every capture into a slice, and only then
// ingests them all in one IngestBatch. It is the reference the streamed
// sendRound is held to.
func (s *Session) eagerRound(fc FileCodec, data []byte, chunks []int, nextSeq *uint16, collector *Collector, comb *combiner, rate float64, stats *Stats) (framesSent int, airTime time.Duration, err error) {
	nChunks := fc.NumChunks(len(data))
	frames := make([]*raster.Image, 0, len(chunks))
	seqChunk := make(map[uint16]int, len(chunks))
	for _, ci := range chunks {
		payload, err := fc.Chunk(data, ci)
		if err != nil {
			return 0, 0, err
		}
		f, err := s.Codec.EncodeFrame(payload, *nextSeq, ci == nChunks-1)
		if err != nil {
			return 0, 0, fmt.Errorf("transport: %w", err)
		}
		seqChunk[*nextSeq] = ci
		*nextSeq = (*nextSeq + 1) & 0x7FFF
		frames = append(frames, f.Render())
	}

	disp, err := screen.NewDisplay(frames, rate, 0)
	if err != nil {
		return 0, 0, fmt.Errorf("transport: %w", err)
	}
	disp.Transition = screen.DefaultTransition

	caps, err := s.Link.Camera.Film(disp, s.Link.Channel)
	if err != nil {
		return 0, 0, fmt.Errorf("transport: %w", err)
	}
	rx := core.NewReceiver(s.Codec)
	imgs := make([]*raster.Image, len(caps))
	for i := range caps {
		imgs[i] = caps[i].Image
	}
	for _, err := range rx.IngestBatch(imgs) {
		if err != nil {
			class := core.ClassifyFailure(err)
			stats.addFailure(class)
			s.recordFailure(class)
		}
	}
	rx.Flush()
	attempts, wins := rx.RecoveryStats()
	stats.addLadder(attempts, wins)
	for _, df := range rx.Frames() {
		if df.Err != nil {
			class := core.ClassifyFailure(df.Err)
			stats.addFailure(class)
			s.recordFailure(class)
			if comb != nil && df.Cells != nil {
				if ci, ok := seqChunk[df.Header.Seq]; ok {
					comb.absorb(s, ci, df, collector, stats)
				}
			}
			continue
		}
		_ = collector.Add(df.Payload)
	}
	return len(frames), disp.Duration(), nil
}

// roundFunc is the signature sendRound and eagerRound share.
type roundFunc func(s *Session, fc FileCodec, data []byte, chunks []int, nextSeq *uint16, collector *Collector, comb *combiner, rate float64, stats *Stats) (int, time.Duration, error)

// streamGeometry is a small panel (60x15 cells of 8 px) whose captures
// film and decode in a few milliseconds.
func streamGeometry(t testing.TB) *layout.Geometry {
	t.Helper()
	geo, err := layout.NewGeometry(480, 120, 8)
	if err != nil {
		t.Fatal(err)
	}
	return geo
}

// roundCase is one generated round configuration.
type roundCase struct {
	chunks      int
	displayRate float64
	camRate     float64
	readout     float64
	jitter      time.Duration
	chanCfg     channel.Config
	faults      string
	recovery    RecoveryMode
}

func (c roundCase) String() string {
	return fmt.Sprintf("%d chunks at %.0f fps, camera %.0f fps readout %.2f jitter %v, channel %+v, faults %q, recovery %v",
		c.chunks, c.displayRate, c.camRate, c.readout, c.jitter, c.chanCfg, c.faults, c.recovery)
}

func genRoundCase(rng *rand.Rand) roundCase {
	c := roundCase{
		chunks:      1 + rng.Intn(8),
		displayRate: []float64{6, 10, 15, 20, 30}[rng.Intn(5)],
		camRate:     []float64{20, 30, 60}[rng.Intn(3)],
		readout:     []float64{0.5, 0.9, 1}[rng.Intn(3)],
		chanCfg:     channel.DefaultConfig(),
		faults:      []string{"", "drop=0.3,seed=2", "drop=0.2,burst=0.3,splice=0.2,seed=5", "occlude=0.3,flicker=0.2"}[rng.Intn(4)],
		recovery:    []RecoveryMode{RecoveryOff, RecoveryLadder, RecoveryCombine}[rng.Intn(3)],
	}
	if rng.Intn(2) == 0 {
		c.jitter = 3 * time.Millisecond
	}
	c.chanCfg.Seed = rng.Int63()
	c.chanCfg.DistanceCM = 8 + 8*rng.Float64()
	c.chanCfg.ViewAngleDeg = 20 * rng.Float64()
	return c
}

// session builds a fresh session for the case.
func (c roundCase) session(t *testing.T) *Session {
	t.Helper()
	cfg := core.Config{Geometry: streamGeometry(t), DisplayRate: uint8(c.displayRate)}
	combine := c.recovery.Configure(&cfg)
	codec, err := core.NewCodec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := faults.ParseSpec(c.faults)
	if err != nil {
		t.Fatal(err)
	}
	cam := camera.Camera{RateFPS: c.camRate, ReadoutFraction: c.readout, TimingJitter: c.jitter, Seed: 7, Faults: chain}
	return &Session{
		Codec:   codec,
		Link:    Link{Channel: channel.MustNew(c.chanCfg), Camera: cam, DisplayRate: c.displayRate},
		Combine: combine,
	}
}

// roundOutcome is everything a round leaves behind.
type roundOutcome struct {
	sent      []int
	air       []time.Duration
	nextSeq   uint16
	collector *Collector
	tables    map[int]softTable
	stats     *Stats
	faults    map[string]int
	drops     int
	probe     []colorspace.RGB
}

// run plays two rounds of the case through round: every chunk, then the
// chunks the collector still misses. It ends by filming one probe frame
// through the channel, whose pixels tell where the channel PRNG stood.
func (c roundCase) run(t *testing.T, round roundFunc) roundOutcome {
	t.Helper()
	s := c.session(t)
	fc := FileCodec{Codec: s.Codec}
	data := payloadOfChunks(t, fc, c.chunks)
	chunks := make([]int, fc.NumChunks(len(data)))
	for i := range chunks {
		chunks[i] = i
	}
	out := roundOutcome{collector: NewCollector(), stats: &Stats{}}
	var comb *combiner
	if s.Combine {
		comb = newCombiner()
	}
	for range 2 {
		sent, air, err := round(s, fc, data, chunks, &out.nextSeq, out.collector, comb, c.displayRate, out.stats)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		out.sent = append(out.sent, sent)
		out.air = append(out.air, air)
		if m := out.collector.Missing(); m != nil {
			chunks = m
		}
		if out.collector.Complete() || len(chunks) == 0 {
			break
		}
	}
	if comb != nil {
		out.tables = comb.tables
	}
	out.faults, out.drops = s.Link.Camera.Faults.Counters(), s.Link.Camera.Faults.Drops()
	probe, err := s.Codec.EncodeFrame(nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	out.probe = s.Link.Channel.Photometric(probe.Render()).Pix
	return out
}

// payloadOfChunks returns a random payload that FileCodec splits into
// exactly n chunks (chunk 0 is the manifest).
func payloadOfChunks(t testing.TB, fc FileCodec, n int) []byte {
	t.Helper()
	for size := max(1, (n-2)*fc.ChunkSize()); size <= n*fc.ChunkSize(); size++ {
		if fc.NumChunks(size) == n {
			return workload.Random(size, int64(n))
		}
	}
	t.Fatalf("no payload splits into %d chunks", n)
	return nil
}

// TestStreamedRoundMatchesEager: the streamed round — frames rendered on
// demand, captures decoded in windows as they are filmed and recycled
// after each window — leaves exactly what the eager round left: frames
// sent, air time, collector contents, cross-round soft tables, every
// Stats field (decode failures and ladder counts included), fault-chain
// counters and the channel PRNG position, across generated rates,
// channels, fault chains and recovery modes, over two rounds.
func TestStreamedRoundMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	cases := 12
	if testing.Short() || raceEnabled { // the race detector checks the windows' goroutines, not the inputs
		cases = 4
	}
	for range cases {
		c := genRoundCase(rng)
		want := c.run(t, (*Session).eagerRound)
		got := c.run(t, (*Session).sendRound)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v:\nstreamed %+v\nstats %+v\neager    %+v\nstats %+v", c, got, got.stats, want, want.stats)
		}
	}
}

// bufferTap is a fault injector that changes nothing and records the
// pixel buffer of every capture the camera films.
type bufferTap map[*colorspace.RGB]bool

func (bufferTap) Name() string { return "tap" }

func (b bufferTap) Apply(img *raster.Image, _ int, _ *rand.Rand) faults.Outcome {
	b[&img.Pix[0]] = true
	return faults.OutcomeNone
}

// TestRoundHoldsBoundedCaptures: a round holds at most one window of
// captures plus the capture being filmed, whatever its frame count. With
// the GC off, the raster pool never drops a recycled buffer, so every
// capture buffer that is not fresh is one a finished window handed back
// (or a frame the display released); the number of distinct buffers the
// camera films into is then the most images the round ever held at once.
// The eager round held every capture of the round: 25 buffers at 8 frames.
func TestRoundHoldsBoundedCaptures(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its cache at random under -race; buffer reuse is measured without it")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// A blur-free channel films fastest; the buffers do not depend on it.
	c := roundCase{chunks: 8, displayRate: 10, camRate: 30, readout: 0.9, chanCfg: channel.DefaultConfig()}
	c.chanCfg.BlurSigma = 0
	window := 2 * runtime.GOMAXPROCS(0)
	bound := window + 2*runtime.GOMAXPROCS(0) + 4
	for _, n := range []int{8, 8, 200} { // the first run warms the pool
		c.chunks = n
		s := c.session(t)
		tap := bufferTap{}
		s.Link.Camera.Faults = faults.NewChain(1, tap)
		fc := FileCodec{Codec: s.Codec}
		data := payloadOfChunks(t, fc, n)
		chunks := make([]int, n)
		for i := range chunks {
			chunks[i] = i
		}
		var seq uint16
		stats := &Stats{}
		collector := NewCollector()
		if _, _, err := s.sendRound(fc, data, chunks, &seq, collector, nil, c.displayRate, stats); err != nil {
			t.Fatal(err)
		}
		if got := len(collector.chunks); got != n {
			t.Fatalf("%d frames: collected %d chunks (failures %v)", n, got, stats.DecodeFailures)
		}
		t.Logf("%d frames: %d distinct capture buffers, bound %d", n, len(tap), bound)
		if len(tap) > bound {
			t.Fatalf("%d frames: captures filmed into %d distinct buffers, bound %d (window %d)", n, len(tap), bound, window)
		}
	}
}
