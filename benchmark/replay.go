package main

import (
	"bytes"
	"fmt"
	"time"

	"rainbar"
	"rainbar/internal/camera"
	"rainbar/internal/core"
	"rainbar/internal/faults"
	"rainbar/internal/raster"
	"rainbar/internal/screen"
)

// rx_replay: captures filmed during set-up are replayed, round by round,
// into one long-lived receiver, so the timed phase is all decode. Rounds
// repeat across passes only to keep set-up short; real captures never
// repeat, so a cache keyed on capture content would be no real gain.
const (
	// replayRate is above half the 30 fps camera rate, so captures mix two
	// frames and the tracking-bar sync path runs.
	replayRate   = 20
	replayRounds = 9
	replayFrames = 6
	// One round in replayFaultEvery passes through the fault chain.
	replayFaultEvery = 3
)

// replayFaults are the injectors of a faulted round: a splice near the
// bottom, small occluding patches and thin burst bands, so that the
// recovery ladder runs. A round is one pass of captures with no
// retransmission, and at 20 fps most rows of a frame are seen once, so
// even this damage loses a frame in a few percent of faulted rounds (at
// the fault parser's default sizes, in most of them).
var replayFaults = []faults.Injector{
	faults.PartialFrame{P: 0.15, Splice: true, MinFrac: 0.85, MaxFrac: 0.95},
	faults.Occlusion{P: 0.15, MinFrac: 0.03, MaxFrac: 0.06},
	faults.BurstBlocks{P: 0.15, MaxBursts: 1, MinPx: 2, MaxPx: 6},
}

type replayRound struct {
	payloads [][]byte // indexed by frame sequence number
	captures []*raster.Image
	air      time.Duration
	faulted  bool
}

type replayBench struct {
	rounds []replayRound
	ops    int
	codec  *core.Codec
	rx     *core.Receiver

	// Filming counts, from set-up.
	frames, captures, mixed int
	filmTime                time.Duration
}

func newReplayCodec(rec rainbar.Recorder) (*core.Codec, error) {
	opts := []rainbar.Option{
		rainbar.WithScreenSize(xferW, xferH),
		rainbar.WithBlockSize(xferBlock),
		rainbar.WithDisplayRate(replayRate),
	}
	if rec != nil {
		opts = append(opts, rainbar.WithRecorder(rec))
	}
	return rainbar.New(opts...)
}

// newReplayBench encodes and films every round, decodes each once as the
// warm-up, and checks that verification rejects a corrupted frame.
func newReplayBench(seed int64, ops, rounds int) (*replayBench, error) {
	codec, err := newReplayCodec(nil)
	if err != nil {
		return nil, fmt.Errorf("replay codec: %w", err)
	}
	b := &replayBench{ops: ops, codec: codec, rx: core.NewReceiver(codec)}
	r := newRNG(seed, 3)
	faulted := r.stratified(rounds, replayFaultEvery)
	for i := 0; i < rounds; i++ {
		round, err := b.filmRound(r, faulted[i] == 0)
		if err != nil {
			return nil, fmt.Errorf("film round %d: %w", i, err)
		}
		b.rounds = append(b.rounds, round)
	}
	for i := range b.rounds {
		// A round that fails verification fails its ops in the timed phase.
		_, _ = b.replay(nil, -1, &b.rounds[i], b.rx, nil)
	}
	if err := b.selfTest(); err != nil {
		return nil, err
	}
	return b, nil
}

// selfTest decodes the first clean round again and checks that
// verification accepts its first frame and rejects it with one byte
// flipped.
func (b *replayBench) selfTest() error {
	for i := range b.rounds {
		round := &b.rounds[i]
		if round.faulted {
			continue
		}
		b.rx.IngestBatch(round.captures)
		b.rx.Flush()
		var got []byte
		if df, ok := b.rx.Frame(0); ok && df.Err == nil {
			got = append(got, df.Payload...)
		}
		b.rx.Reset()
		return selfTest(func(got []byte) error { return checkFrame(got, round.payloads[0]) }, got)
	}
	return fmt.Errorf("self-test: no clean round")
}

// filmRound encodes one round of full frames and films it at replayRate.
func (b *replayBench) filmRound(r *rng, faulted bool) (replayRound, error) {
	round := replayRound{faulted: faulted}
	frames := make([]*raster.Image, replayFrames)
	for seq := range frames {
		payload := r.randomPayload(b.codec.FrameCapacity())
		f, err := b.codec.EncodeFrame(payload, uint16(seq), seq == replayFrames-1)
		if err != nil {
			return round, err
		}
		round.payloads = append(round.payloads, payload)
		frames[seq] = f.Render()
	}
	disp, err := screen.NewDisplay(frames, replayRate, 0)
	if err != nil {
		return round, err
	}
	disp.Transition = screen.DefaultTransition
	ch, err := rainbar.NewChannel(xferChannel(r.int63()))
	if err != nil {
		return round, err
	}
	cam := camera.Default()
	if faulted {
		cam.Faults = faults.NewChain(r.int63(), replayFaults...)
	}
	t0 := time.Now()
	caps, err := cam.Film(disp, ch)
	b.filmTime += time.Since(t0)
	if err != nil {
		return round, err
	}
	for i := range caps {
		round.captures = append(round.captures, caps[i].Image)
		if caps[i].Mixed() {
			b.mixed++
		}
	}
	b.frames += replayFrames
	b.captures += len(caps)
	round.air = disp.Duration()
	return round, nil
}

func checkFrame(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("decoded frame differs from its encoded payload")
	}
	return nil
}

// replay runs one op: IngestBatch, Flush, verify, then Reset. Every frame
// of a clean round must decode to its encoded payload. A faulted round's
// captures lost information no single pass can restore, so there every
// frame that decodes must match its payload and a lost frame is counted,
// not failed. It returns the verified payload bytes; c, when set,
// collects the exact decode counts.
func (b *replayBench) replay(tr *tracer, op int, round *replayRound, rx *core.Receiver, c *decodeCounts) (int64, error) {
	root := tr.begin(op, layerOp, "round")
	defer tr.end(root)
	sp := tr.begin(op, layerDecode, "Receiver.IngestBatch")
	errs := rx.IngestBatch(round.captures)
	tr.end(sp)
	sp = tr.begin(op, layerDecode, "Receiver.Flush")
	rx.Flush()
	tr.end(sp)

	var verified int64
	var verr error
	for seq, want := range round.payloads {
		df, ok := rx.Frame(uint16(seq))
		switch {
		case ok && df.Err == nil:
			if err := checkFrame(df.Payload, want); err != nil {
				verr = fmt.Errorf("frame %d: %w", seq, err)
			} else {
				verified += int64(len(want))
			}
		case round.faulted:
		case !ok:
			verr = fmt.Errorf("frame %d of a clean round never completed", seq)
		default:
			verr = fmt.Errorf("frame %d of a clean round: %w", seq, df.Err)
		}
		if verr != nil {
			break
		}
	}
	if c != nil {
		c.captures += len(round.captures)
		for _, err := range errs {
			if err != nil {
				c.captureFails++
			}
		}
		c.frames += len(round.payloads)
		for _, df := range rx.Frames() {
			if df.Err == nil {
				c.framesDecoded++
			}
		}
		attempts, wins := rx.RecoveryStats()
		c.attempts += attempts
		for _, w := range wins {
			c.wins += w
		}
	}
	sp = tr.begin(op, layerDecode, "Receiver.Reset")
	rx.Reset()
	tr.end(sp)
	return verified, verr
}

// pass replays ops rounds in order, cycling through the filmed rounds.
func (b *replayBench) pass(tr *tracer, rx *core.Receiver, c *decodeCounts) *pass {
	p := &pass{}
	start := time.Now()
	for i := 0; i < b.ops; i++ {
		round := &b.rounds[i%len(b.rounds)]
		t0 := time.Now()
		verified, err := b.replay(tr, i, round, rx, c)
		p.opTimes = append(p.opTimes, time.Since(t0))
		if err != nil {
			p.fail(err)
			continue
		}
		p.ok++
		p.bytes += verified
		p.air += round.air
	}
	p.wall = time.Since(start)
	return p
}

func (b *replayBench) run() (*pass, error) { return b.pass(nil, b.rx, nil), nil }

// traced replays the same ops through a codec that reports its decode
// stages to the tracer.
func (b *replayBench) traced(tr *tracer, untraced *pass) (*pass, map[string]float64, error) {
	codec, err := newReplayCodec(tr)
	if err != nil {
		return nil, nil, fmt.Errorf("replay codec: %w", err)
	}
	var c decodeCounts
	p := b.pass(tr, core.NewReceiver(codec), &c)
	a := tr.analyze()
	opTime, covered := a.opCoverage(nil)
	decode := a.selfBy(layerDecode, "")
	caps := float64(b.captures)
	m := map[string]float64{
		"camera.film_ms_per_capture": ratio(ms(b.filmTime), caps),
		"camera.captures_per_frame":  ratio(caps, float64(b.frames)),
		"camera.mixed_ratio":         ratio(float64(b.mixed), caps),
		"core.decode_ms_per_capture": ratio(ms(decode), float64(c.captures)),
		"core.decode_share":          ratio(float64(a.totalBy(layerDecode)), float64(opTime)),
		"trace.coverage":             ratio(float64(covered), float64(opTime)),
		"trace.overhead":             ratio(quantile(p.opTimes, 0.5), quantile(untraced.opTimes, 0.5)) - 1,
	}
	addDecodeCounts(m, a, c)
	return p, m, nil
}

// decodeCounts are the exact decode counts of a traced pass.
type decodeCounts struct {
	captures, captureFails, framesDecoded, frames, attempts, wins int
}

// addDecodeCounts adds the per-capture decode stage times and the exact
// decode ratios.
func addDecodeCounts(m map[string]float64, a *analysis, c decodeCounts) {
	caps := float64(c.captures)
	for _, stage := range []string{"detect", "locate", "extract", "correct"} {
		m["core."+stage+"_ms"] = ratio(ms(a.selfBy(layerDecode, stage)), caps)
	}
	m["core.capture_fail_ratio"] = ratio(float64(c.captureFails), caps)
	m["core.frames_decoded_ratio"] = ratio(float64(c.framesDecoded), float64(c.frames))
	m["core.ladder_attempts_per_capture"] = ratio(float64(c.attempts), caps)
	m["core.ladder_success_ratio"] = ratio(float64(c.wins), float64(c.attempts))
}
