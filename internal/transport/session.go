package transport

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"rainbar/internal/camera"
	"rainbar/internal/channel"
	"rainbar/internal/core"
	"rainbar/internal/obs"
	"rainbar/internal/raster"
	"rainbar/internal/screen"
)

// chunkPrefixLen is the per-frame chunk-index prefix. Frame sequence
// numbers order the *display* stream (tracking bars need consecutive
// numbers on consecutively displayed frames, including retransmissions),
// so reassembly is keyed by an explicit chunk index inside the payload
// instead.
const chunkPrefixLen = 4

// Link bundles the simulated optical path of one transfer direction.
type Link struct {
	// Channel is the optical condition of the screen-camera path.
	Channel *channel.Channel
	// Camera is the receiver's capture device.
	Camera camera.Camera
	// DisplayRate is the sender's display rate in fps.
	DisplayRate float64
}

// Validate reports configuration errors.
func (l Link) Validate() error {
	if l.Channel == nil {
		return fmt.Errorf("transport: nil channel")
	}
	if l.DisplayRate <= 0 {
		return fmt.Errorf("transport: display rate %.2f must be positive", l.DisplayRate)
	}
	return l.Camera.Validate()
}

// Stats summarizes a completed transfer, including how much the session
// had to degrade to finish.
type Stats struct {
	// Rounds is the number of display rounds (1 = no retransmission).
	Rounds int
	// FramesSent counts frames displayed across all rounds.
	FramesSent int
	// FramesNeeded is the minimum frame count (chunks).
	FramesNeeded int
	// ChunksDelivered counts chunks the receiver collected; equals
	// FramesNeeded on a bit-exact transfer and measures partial delivery
	// otherwise.
	ChunksDelivered int
	// AirTime is the total simulated display time.
	AirTime time.Duration
	// Goodput is payload bytes delivered per second of air time.
	Goodput float64
	// App is the classified application type.
	App AppType

	// RateRounds counts display rounds at each rate; more than one key
	// means rate fallback engaged (§IV-D's rate-adaptation knob).
	RateRounds map[float64]int
	// RateFallbacks counts rate-reduction recovery actions taken.
	RateFallbacks int
	// FinalDisplayRate is the rate in effect when the transfer ended.
	FinalDisplayRate float64
	// DecodeFailures tallies capture decode errors by pipeline stage
	// across all rounds (receiver feedback, classified by core).
	DecodeFailures map[core.FailureClass]int
	// FaultCounts tallies injected faults by class during this transfer
	// (only populated when the link's camera carries an injector chain).
	FaultCounts map[string]int
	// FramesDropped counts captures lost to injected whole-frame loss.
	FramesDropped int

	// LadderAttempts counts decode-recovery hypotheses attempted across
	// all rounds (receiver ladder plus transport-level combining).
	LadderAttempts int
	// LadderSuccessesByHypothesis tallies recoveries per hypothesis ID
	// (core.Hyp*). Nil when the ladder never recovered anything.
	LadderSuccessesByHypothesis map[string]int
	// CombinedDecodes counts frames delivered only by fusing failed
	// captures' soft tables across retransmission rounds (HARQ).
	CombinedDecodes int
}

// addLadder folds recovery-ladder activity into the stats.
func (s *Stats) addLadder(attempts int, wins map[string]int) {
	s.LadderAttempts += attempts
	for k, v := range wins {
		if v == 0 {
			continue
		}
		if s.LadderSuccessesByHypothesis == nil {
			s.LadderSuccessesByHypothesis = make(map[string]int)
		}
		s.LadderSuccessesByHypothesis[k] += v
	}
}

// addFailure records one classified decode failure.
func (s *Stats) addFailure(c core.FailureClass) {
	if c == "" {
		return
	}
	if s.DecodeFailures == nil {
		s.DecodeFailures = make(map[core.FailureClass]int)
	}
	s.DecodeFailures[c]++
}

// Session transfers files over a screen-camera link with retransmission
// and graceful degradation: rounds that make no progress trigger a display
// rate fallback, and the total retransmission volume is bounded by a frame
// budget rather than rounds alone.
type Session struct {
	// Codec is the RainBar codec shared by both ends.
	Codec *core.Codec
	// Link is the optical path.
	Link Link
	// MaxRounds bounds retransmission rounds (default 8). Negative values
	// are a configuration error.
	MaxRounds int
	// MinDisplayRate floors the rate-fallback ladder (default 6 fps — the
	// bottom of the paper's display-rate sweep — clamped to the link rate).
	MinDisplayRate float64
	// StallRounds is how many consecutive no-progress rounds trigger a
	// rate fallback (default 2).
	StallRounds int
	// FrameBudget caps the total frames displayed across all rounds
	// (default MaxRounds x chunks, the flat loop's worst case). When the
	// budget runs out the transfer fails with the budget in the error.
	FrameBudget int
	// Combine enables cross-round soft combining (HARQ): frames that fail
	// to decode leave behind a per-cell (symbol, confidence) table, and the
	// retransmission round's equally-failed capture is fused with it before
	// giving up. Effective only when the codec's RecoveryBudget is on
	// (failed frames carry no soft table otherwise).
	Combine bool
	// Recorder, when set, counts transfers, rounds, retransmissions and
	// rate fallbacks, and times each round. Transfer outcomes never depend
	// on it; round timing uses whatever clock the recorder was built with.
	Recorder obs.Recorder
}

// obsInc counts delta on the session recorder when one is set.
func (s *Session) obsInc(name string, delta int64) {
	if obs.Enabled(s.Recorder) {
		s.Recorder.Inc(name, delta)
	}
}

// recordFailure mirrors one classified decode failure to the recorder.
func (s *Session) recordFailure(c core.FailureClass) {
	if c != "" && obs.Enabled(s.Recorder) {
		s.Recorder.Inc(obs.With(obs.MTransportDecodeFailures, "stage", string(c)), 1)
	}
}

// rateBackoff is the multiplicative rate reduction per fallback. The
// paper's knob is the display rate f_d (§IV-D): decoding rate degrades
// with f_d, so when rounds stall the sender trades throughput for
// per-frame reliability.
const rateBackoff = 0.6

// plan resolves the session's degradation knobs against the payload.
type plan struct {
	maxRounds int
	minRate   float64
	stallN    int
	budget    int
}

// plan resolves the knobs for a reliable transfer or, when lossy, for a
// loss-tolerant one: at most MaxRounds rounds (default 2) at the link rate
// (a floor at the link rate never falls back) and no frame budget.
func (s *Session) plan(nChunks int, lossy bool) (plan, error) {
	if s.MaxRounds < 0 {
		return plan{}, fmt.Errorf("transport: MaxRounds %d is negative; zero means default", s.MaxRounds)
	}
	if lossy {
		p := plan{maxRounds: s.MaxRounds, minRate: s.Link.DisplayRate, budget: math.MaxInt}
		if p.maxRounds == 0 {
			p.maxRounds = 2
		}
		return p, nil
	}
	p := plan{maxRounds: s.MaxRounds, minRate: s.MinDisplayRate, stallN: s.StallRounds, budget: s.FrameBudget}
	if p.maxRounds == 0 {
		p.maxRounds = 8
	}
	if p.minRate <= 0 {
		p.minRate = 6
	}
	if p.minRate > s.Link.DisplayRate {
		p.minRate = s.Link.DisplayRate
	}
	if p.stallN <= 0 {
		p.stallN = 2
	}
	if p.budget <= 0 {
		p.budget = p.maxRounds * nChunks
	}
	return p, nil
}

// Transfer sends data end to end and returns the receiver's reconstruction
// with transfer statistics. The returned data is bit-exact or an error is
// reported (text transfer "requires extremely high accuracy", §V). It is
// the one-shot form of Begin/Step/Seal.
func (s *Session) Transfer(data []byte) ([]byte, *Stats, error) {
	x, err := s.Begin(data)
	if err != nil {
		return nil, nil, err
	}
	if err := x.run(); err != nil {
		return nil, nil, err
	}
	return x.Seal()
}

// Reset rewinds the session's link to its just-constructed state: the
// channel PRNG and capture counter, and any fault-injector chains on the
// channel or camera. A long-lived session can then run back-to-back
// transfers, each bit-identical to what a freshly built session would
// produce. Per-transfer decode state (collector, combiner soft tables,
// stats) never lives on the Session, so nothing else needs clearing.
func (s *Session) Reset() {
	if s.Link.Channel != nil {
		s.Link.Channel.Reset()
		s.Link.Channel.Faults.Reset()
	}
	s.Link.Camera.Faults.Reset()
}

// faultBaseline snapshots the camera's injector-chain counters so the
// transfer can report only its own fault exposure.
func (s *Session) faultBaseline() (map[string]int, int) {
	ch := s.Link.Camera.Faults
	return ch.Counters(), ch.Drops()
}

// faultDelta folds the injector-chain activity since base into stats.
// Deltas accumulate so a transfer can take a baseline per round; the chain
// counters only grow, so per-round deltas sum to the whole-transfer delta.
func (s *Session) faultDelta(stats *Stats, base map[string]int, dropBase int) {
	ch := s.Link.Camera.Faults
	if ch == nil {
		return
	}
	for k, v := range ch.Counters() {
		if d := v - base[k]; d > 0 {
			if stats.FaultCounts == nil {
				stats.FaultCounts = make(map[string]int)
			}
			stats.FaultCounts[k] += d
		}
	}
	stats.FramesDropped += ch.Drops() - dropBase
}

// sendRound displays the given chunks once at the given display rate,
// films them through the link, and feeds every decoded frame into the
// collector. Sequence numbers continue across rounds so consecutively
// displayed frames keep consecutive tracking-bar colors. Decode failures
// reported by the receiver are classified into stats; when comb is
// non-nil, failed frames' soft tables are fused across rounds.
//
// The round is a stream: it encodes every frame's cells up front (they are
// small), but the display renders each frame only when the camera's scan
// first shows it and recycles it once the scan has passed, and the
// receiver decodes the captures in windows as they are filmed, recycling
// each window after the merge. A round therefore holds a few frames and
// one window of captures whatever its frame count.
func (s *Session) sendRound(fc FileCodec, data []byte, chunks []int, nextSeq *uint16, collector *Collector, comb *combiner, rate float64, stats *Stats) (framesSent int, airTime time.Duration, err error) {
	nChunks := fc.NumChunks(len(data))
	frames := make([]*core.Frame, 0, len(chunks))
	// seqChunk maps this round's frame sequence numbers back to chunk
	// indices: a failed frame has no decodable chunk prefix, so combining
	// keys its soft table by the chunk the sender put at that sequence.
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
		frames = append(frames, f)
	}

	g := s.Codec.Geometry()
	w, h := g.Cols()*g.BlockSize(), g.Rows()*g.BlockSize() // what Frame.Render paints
	disp, err := screen.NewRenderedDisplay(len(frames), w, h, func(i int) *raster.Image { return frames[i].Render() }, rate, 0)
	if err != nil {
		return 0, 0, fmt.Errorf("transport: %w", err)
	}
	disp.Transition = screen.DefaultTransition

	rx := core.NewReceiver(s.Codec)
	// Batched ingest parallelizes the per-capture grid decodes while keeping
	// merge order — and therefore every error and frame — identical to
	// sequential Ingest calls, for any window. The window is the one
	// IngestBatch itself works in.
	window := make([]*raster.Image, 0, 2*runtime.GOMAXPROCS(0))
	decode := func() {
		for _, err := range rx.IngestBatch(window) {
			// Individual captures may fail; the stream continues, but the
			// failure class feeds the degradation policy's accounting.
			if err != nil {
				class := core.ClassifyFailure(err)
				stats.addFailure(class)
				s.recordFailure(class)
			}
		}
		// The receiver keeps no reference to a capture.
		for _, img := range window {
			raster.Recycle(img)
		}
		window = window[:0]
	}
	err = s.Link.Camera.FilmEach(disp, s.Link.Channel, func(c camera.Capture) error {
		window = append(window, c.Image)
		if len(window) == cap(window) {
			decode()
		}
		return nil
	})
	if err != nil {
		return 0, 0, fmt.Errorf("transport: %w", err)
	}
	decode()
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
		// Malformed payloads are simply not collected.
		_ = collector.Add(df.Payload)
	}
	return len(frames), disp.Duration(), nil
}
