package main

import (
	"bytes"
	"fmt"
	"time"

	"rainbar"
	"rainbar/internal/camera"
	"rainbar/internal/core"
	"rainbar/internal/raster"
	"rainbar/internal/screen"
	"rainbar/internal/transport"
)

// xfer_clean: back-to-back transfers through the rainbar facade with the
// settings of examples/texttransfer and examples/mediatransfer.
const (
	xferW, xferH, xferBlock = 640, 360, 12
	xferRate                = 10
	// Rounds per transfer, as the examples set them: text retransmits
	// until bit-exact, media gets two rounds and then conceals.
	xferTextRounds  = 10
	xferLossyRounds = 2
	xferWarmups     = 3
)

// xferKinds is the op mix: half text through Transfer, a quarter each of
// image and audio through TransferLossy.
var xferKinds = []rainbar.AppType{rainbar.AppText, rainbar.AppText, rainbar.AppImage, rainbar.AppAudio}

// xferChunks spreads transfers over one to six frames. The weights put the
// median inside the 4-frame transfers and p90 inside the 6-frame ones, so
// neither percentile sits on a jump between two sizes.
var xferChunks = []int{1, 2, 3, 3, 4, 4, 5, 5, 6, 6}

// xferOp is one transfer's input.
type xferOp struct {
	kind     rainbar.AppType
	data     []byte
	chanSeed int64
}

// xferOut is what one untraced transfer delivered.
type xferOut struct {
	got       []byte
	stats     *rainbar.Stats
	concealed []int
}

type xferBench struct {
	codecs    map[rainbar.AppType]*rainbar.Codec
	chunkSize int
	ops       []xferOp
	outs      []xferOut
}

func newXferCodec(app rainbar.AppType, rec rainbar.Recorder) (*rainbar.Codec, error) {
	opts := []rainbar.Option{
		rainbar.WithScreenSize(xferW, xferH),
		rainbar.WithBlockSize(xferBlock),
		rainbar.WithDisplayRate(xferRate),
		rainbar.WithAppType(app),
	}
	if rec != nil {
		opts = append(opts, rainbar.WithRecorder(rec))
	}
	return rainbar.New(opts...)
}

func newXferCodecs(rec rainbar.Recorder) (map[rainbar.AppType]*rainbar.Codec, error) {
	out := make(map[rainbar.AppType]*rainbar.Codec, 3)
	for _, app := range []rainbar.AppType{rainbar.AppText, rainbar.AppImage, rainbar.AppAudio} {
		c, err := newXferCodec(app, rec)
		if err != nil {
			return nil, fmt.Errorf("xfer codec: %w", err)
		}
		out[app] = c
	}
	return out, nil
}

// genXferOps draws n transfers: kinds and frame counts are stratified so
// every seed runs the same mix, and the seed picks order, exact sizes,
// bytes and channel noise.
func genXferOps(r *rng, n, chunkSize int) []xferOp {
	kinds := r.stratified(n, len(xferKinds))
	chunks := r.stratified(n, len(xferChunks))
	ops := make([]xferOp, n)
	for i := range ops {
		kind := xferKinds[kinds[i]]
		size := r.sizeForChunks(xferChunks[chunks[i]], chunkSize, 16)
		var data []byte
		switch kind {
		case rainbar.AppText:
			data = r.textPayload(size)
		case rainbar.AppImage:
			data = r.imagePayload(size)
		default:
			data = r.audioPayload(size)
		}
		ops[i] = xferOp{kind: kind, data: data, chanSeed: r.int63()}
	}
	return ops
}

// newXferBench builds codecs and inputs and runs the warm-up transfers,
// checking that verification rejects a corrupted delivery.
func newXferBench(seed int64, ops int) (*xferBench, error) {
	codecs, err := newXferCodecs(nil)
	if err != nil {
		return nil, err
	}
	b := &xferBench{codecs: codecs}
	b.chunkSize = transport.FileCodec{Codec: codecs[rainbar.AppText]}.ChunkSize()
	b.ops = genXferOps(newRNG(seed, 1), ops, b.chunkSize)
	for i, op := range genXferOps(newRNG(seed, 2), xferWarmups, b.chunkSize) {
		out, err := b.transfer(op)
		if err != nil {
			return nil, fmt.Errorf("warm-up transfer %d: %w", i, err)
		}
		if err := b.verify(op, out); err != nil {
			return nil, fmt.Errorf("warm-up transfer %d: %w", i, err)
		}
		if len(out.concealed) > 0 {
			continue // a flipped byte may fall in a concealed chunk, which verify rightly accepts
		}
		if err := selfTest(func(got []byte) error { return b.verify(op, xferOut{got: got}) }, out.got); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func xferChannel(seed int64) rainbar.ChannelConfig {
	cfg := rainbar.DefaultChannelConfig()
	cfg.Seed = seed
	return cfg
}

// transfer runs one op through the facade the way the examples do.
func (b *xferBench) transfer(op xferOp) (xferOut, error) {
	ch, err := rainbar.NewChannel(xferChannel(op.chanSeed))
	if err != nil {
		return xferOut{}, err
	}
	sess := rainbar.NewSession(b.codecs[op.kind], rainbar.Link{
		Channel:     ch,
		Camera:      rainbar.DefaultCamera(),
		DisplayRate: xferRate,
	})
	if op.kind == rainbar.AppText {
		sess.MaxRounds = xferTextRounds
		got, stats, err := sess.Transfer(op.data)
		return xferOut{got: got, stats: stats}, err
	}
	sess.MaxRounds = xferLossyRounds
	got, stats, err := sess.TransferLossy(op.data)
	if err != nil {
		return xferOut{}, err
	}
	return xferOut{got: got, stats: &stats.Stats, concealed: stats.MissingChunks}, nil
}

// verify checks a delivery: text bit-exact; media the same length with
// every chunk not reported as concealed bit-exact.
func (b *xferBench) verify(op xferOp, out xferOut) error {
	if op.kind == rainbar.AppText {
		if !bytes.Equal(out.got, op.data) {
			return fmt.Errorf("text delivery differs from what was sent")
		}
		return nil
	}
	return verifyLossy(op.data, out.got, b.chunkSize, out.concealed)
}

// chunkRange is the slice of the file that chunk ci carries: chunks cut
// the manifest-prefixed blob, so chunk 0 holds the 12-byte manifest.
func chunkRange(ci, chunkSize, n int) (lo, hi int) {
	const manifestLen = 12
	lo = max(ci*chunkSize-manifestLen, 0)
	hi = min((ci+1)*chunkSize-manifestLen, n)
	return lo, hi
}

func verifyLossy(sent, got []byte, chunkSize int, concealed []int) error {
	if len(got) != len(sent) {
		return fmt.Errorf("lossy delivery has %d bytes, sent %d", len(got), len(sent))
	}
	hidden := make(map[int]bool, len(concealed))
	for _, ci := range concealed {
		hidden[ci] = true
	}
	for ci := 0; ; ci++ {
		lo, hi := chunkRange(ci, chunkSize, len(sent))
		if lo >= len(sent) {
			return nil
		}
		if !hidden[ci] && !bytes.Equal(got[lo:hi], sent[lo:hi]) {
			return fmt.Errorf("lossy delivery differs in chunk %d, which was not reported concealed", ci)
		}
	}
}

// verifiedBytes counts the delivered bytes outside concealed chunks.
func (b *xferBench) verifiedBytes(op xferOp, out xferOut) int {
	n := len(op.data)
	for _, ci := range out.concealed {
		lo, hi := chunkRange(ci, b.chunkSize, len(op.data))
		n -= max(hi-lo, 0)
	}
	return n
}

// run is the timed phase: every op back to back on one client.
func (b *xferBench) run() (*pass, error) {
	p := &pass{}
	b.outs = make([]xferOut, len(b.ops))
	start := time.Now()
	for i, op := range b.ops {
		t0 := time.Now()
		out, err := b.transfer(op)
		p.opTimes = append(p.opTimes, time.Since(t0))
		if err == nil {
			err = b.verify(op, out)
		}
		if err != nil {
			p.fail(err)
			continue
		}
		b.outs[i] = out
		p.ok++
		p.bytes += int64(b.verifiedBytes(op, out))
		p.air += out.stats.AirTime
	}
	p.wall = time.Since(start)
	return p, nil
}

// xferCounts are the exact per-layer counts of a traced pass.
type xferCounts struct {
	decodeCounts
	rounds, framesSent, framesNeeded, mixed int
}

// traced re-drives every op through the public calls Session makes, one
// span per call, and checks each against the untraced delivery. An op the
// re-drive cannot reproduce keeps its op time but adds no covered time.
func (b *xferBench) traced(tr *tracer, untraced *pass) (*pass, map[string]float64, error) {
	codecs, err := newXferCodecs(tr)
	if err != nil {
		return nil, nil, err
	}
	p := &pass{}
	var c xferCounts
	reproduced := make(map[int]bool, len(b.ops))
	for i, op := range b.ops {
		t0 := time.Now()
		got, err := b.redrive(tr, i, op, codecs[op.kind], &c)
		p.opTimes = append(p.opTimes, time.Since(t0))
		if err == nil && b.outs[i].got != nil && bytes.Equal(got, b.outs[i].got) {
			reproduced[i] = true
		}
	}
	for _, out := range b.outs {
		if out.stats != nil {
			c.rounds += out.stats.Rounds
			c.framesSent += out.stats.FramesSent
			c.framesNeeded += out.stats.FramesNeeded
		}
	}
	a := tr.analyze()
	opTime, covered := a.opCoverage(reproduced)
	encode := a.selfBy(layerEncode, "")
	decode := a.selfBy(layerDecode, "")
	film := a.selfBy(layerLink, "Camera.Film")
	caps := float64(c.captures)
	m := map[string]float64{
		"transport.rounds_per_op":          ratio(float64(c.rounds), float64(len(b.ops))),
		"transport.frames_sent_per_needed": ratio(float64(c.framesSent), float64(c.framesNeeded)),
		"core.encode_ms_per_frame":         ratio(ms(encode), float64(c.frames)),
		"core.encode_share":                ratio(float64(encode), float64(opTime)),
		"camera.film_ms_per_capture":       ratio(ms(film), caps),
		"camera.film_share":                ratio(float64(a.selfBy(layerLink, "")), float64(opTime)),
		"camera.captures_per_frame":        ratio(caps, float64(c.frames)),
		"camera.mixed_ratio":               ratio(float64(c.mixed), caps),
		"core.decode_ms_per_capture":       ratio(ms(decode), caps),
		"core.decode_share":                ratio(float64(a.totalBy(layerDecode)), float64(opTime)),
		"trace.coverage":                   ratio(float64(covered), float64(opTime)),
		"trace.overhead":                   ratio(quantile(p.opTimes, 0.5), quantile(untraced.opTimes, 0.5)) - 1,
	}
	addDecodeCounts(m, a, c.decodeCounts)
	return p, m, nil
}

// redrive repeats one transfer call by call: FileCodec.Chunk,
// Codec.EncodeFrame, Frame.Render, screen.NewDisplay, Camera.Film,
// core.NewReceiver, IngestBatch, Flush and Collector.Add/File, in the
// order transport.Session makes them, round after round.
func (b *xferBench) redrive(tr *tracer, op int, in xferOp, codec *core.Codec, c *xferCounts) ([]byte, error) {
	root := tr.begin(op, layerOp, "transfer")
	defer tr.end(root)

	sp := tr.begin(op, layerLink, "channel.New")
	ch, err := rainbar.NewChannel(xferChannel(in.chanSeed))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	cam := camera.Default()
	fc := transport.FileCodec{Codec: codec}
	nChunks := fc.NumChunks(len(in.data))
	missing := make([]int, nChunks)
	for i := range missing {
		missing[i] = i
	}
	maxRounds := xferLossyRounds
	if in.kind == rainbar.AppText {
		maxRounds = xferTextRounds
	}
	collector := transport.NewCollector()
	var seq uint16
	for round := 0; round < maxRounds && len(missing) > 0; round++ {
		imgs := make([]*raster.Image, 0, len(missing))
		for _, ci := range missing {
			sp = tr.begin(op, layerTransport, "FileCodec.Chunk")
			payload, err := fc.Chunk(in.data, ci)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			sp = tr.begin(op, layerEncode, "Codec.EncodeFrame")
			f, err := codec.EncodeFrame(payload, seq, ci == nChunks-1)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			seq = (seq + 1) & 0x7FFF
			sp = tr.begin(op, layerEncode, "Frame.Render")
			imgs = append(imgs, f.Render())
			tr.end(sp)
		}
		c.frames += len(imgs)

		sp = tr.begin(op, layerLink, "screen.NewDisplay")
		disp, err := screen.NewDisplay(imgs, xferRate, 0)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		disp.Transition = screen.DefaultTransition
		sp = tr.begin(op, layerLink, "Camera.Film")
		caps, err := cam.Film(disp, ch)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		shots := make([]*raster.Image, len(caps))
		for i := range caps {
			shots[i] = caps[i].Image
			if caps[i].Mixed() {
				c.mixed++
			}
		}
		c.captures += len(caps)

		sp = tr.begin(op, layerDecode, "core.NewReceiver")
		rx := core.NewReceiver(codec)
		tr.end(sp)
		sp = tr.begin(op, layerDecode, "Receiver.IngestBatch")
		errs := rx.IngestBatch(shots)
		tr.end(sp)
		for _, err := range errs {
			if err != nil {
				c.captureFails++
			}
		}
		sp = tr.begin(op, layerDecode, "Receiver.Flush")
		rx.Flush()
		frames := rx.Frames()
		tr.end(sp)
		attempts, wins := rx.RecoveryStats()
		c.attempts += attempts
		for _, w := range wins {
			c.wins += w
		}
		for _, df := range frames {
			if df.Err != nil {
				continue
			}
			c.framesDecoded++
			sp = tr.begin(op, layerTransport, "Collector.Add")
			_ = collector.Add(df.Payload) // malformed payloads are skipped, as Session does
			tr.end(sp)
		}
		if collector.Complete() {
			missing = nil
		} else if m := collector.Missing(); m != nil {
			missing = m
		}
	}
	sp = tr.begin(op, layerTransport, "Collector.File")
	defer tr.end(sp)
	if in.kind == rainbar.AppText {
		got, _, err := collector.File()
		return got, err
	}
	got, _, _, err := collector.FileWithConcealment()
	return got, err
}
