package experiment

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"rainbar/internal/channel"
	"rainbar/internal/cobra"
	"rainbar/internal/colorspace"
	"rainbar/internal/core"
	"rainbar/internal/core/layout"
	"rainbar/internal/obs"
	"rainbar/internal/raster"
	"rainbar/internal/transport"
	"rainbar/internal/workload"
)

// Options configures an experiment run.
type Options struct {
	// Scale selects resolution and frames per point.
	Scale Scale
	// Seed is the base seed; sweep points derive their own from it.
	Seed int64
	// Workers caps the sweep-point worker pool. 0 (the zero value) uses
	// one worker per CPU; 1 forces the legacy serial path. Results are
	// bit-identical for every value: each sweep point derives its own seed
	// via seedAt and owns its codec/channel, and rows are emitted in sweep
	// order regardless of completion order.
	Workers int
	// FaultSpec, when non-empty, adds a custom condition to the fault sweep
	// (faults.ParseSpec syntax, e.g. "drop=0.2,occlude=0.1").
	FaultSpec string
	// Recovery selects the decode-recovery mode for the transfer-based
	// sweeps (fault sweep, text transfer). The zero value (off) keeps every
	// table byte-identical to a ladder-free build; the recovery ablation
	// sweep ignores it and runs all four modes.
	Recovery transport.RecoveryMode
	// Recorder, when set, receives pipeline and worker-pool metrics from
	// every sweep point. Tables are bit-identical with or without it.
	Recorder obs.Recorder
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options { return Options{Scale: DefaultScale(), Seed: 1} }

// defaultBlock is the paper's default block size (12x12 px).
const defaultBlock = 12

// defaultRate is the paper's default display rate (10 fps).
const defaultRate = 10

// baseChannel returns the paper's default working condition.
func baseChannel() channel.Config { return channel.DefaultConfig() }

// errChannel is the condition for the raw error-rate sweeps (Fig. 10):
// the default channel plus the correlated chroma noise of a phone camera
// pipeline, which is what produces the graded per-block errors those
// figures plot. Without it the simulated link is cleaner than any real
// camera and every sweep point reads 0.
func errChannel() channel.Config {
	cfg := channel.DefaultConfig()
	cfg.ChromaNoiseStdDev = 50
	cfg.ChromaNoiseScalePx = 8
	return cfg
}

// streamChannel is the condition for the decoding-rate/throughput sweeps
// (Figs. 11/12): milder chroma noise so the sweeps sit in the regime the
// paper reports (high decoding rates degrading with display rate).
func streamChannel() channel.Config {
	cfg := channel.DefaultConfig()
	cfg.ChromaNoiseStdDev = 25
	cfg.ChromaNoiseScalePx = 8
	return cfg
}

// seedAt derives a per-sweep-point seed.
func seedAt(base int64, i, j int) int64 { return base + int64(i)*1000 + int64(j) }

// Fig10aDistance: error rate vs distance, RainBar vs COBRA.
func Fig10aDistance(o Options) (*Table, error) {
	t := &Table{
		ID:      "fig10a",
		Title:   "Error rate vs distance (cm), RainBar vs COBRA",
		Columns: []string{"distance_cm", "rainbar_err", "cobra_err"},
		Notes: []string{
			"paper shape: error grows with distance; RainBar below COBRA throughout",
		},
	}
	distances := []float64{8, 10, 12, 14, 16, 18, 20}
	// One job per (distance, system) grid cell; slot k holds the rate for
	// distance k/2 under RainBar (even k) or COBRA (odd k).
	rates := make([]float64, 2*len(distances))
	err := forEachPoint(o, len(rates), func(k int) error {
		i, sys := k/2, []System{SystemRainBar, SystemCOBRA}[k%2]
		cfg := errChannel()
		cfg.DistanceCM = distances[i]
		m, err := RunErrorRate(sys, RunConfig{Scale: o.Scale, Recorder: o.Recorder, BlockSize: defaultBlock, DisplayRate: defaultRate, Channel: cfg, Seed: seedAt(o.Seed, i, k%2)})
		if err != nil {
			return fmt.Errorf("fig10a %s d=%v: %w", sys, distances[i], err)
		}
		rates[k] = m.SymbolErrorRate
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, d := range distances {
		t.AddRow(d, rates[2*i], rates[2*i+1])
	}
	return t, nil
}

// Fig10bViewAngle: error rate vs view angle at two block sizes.
func Fig10bViewAngle(o Options) (*Table, error) {
	t := &Table{
		ID:      "fig10b",
		Title:   "Error rate vs view angle (deg) at block sizes 10 and 14 px",
		Columns: []string{"angle_deg", "rainbar_b10", "cobra_b10", "rainbar_b14", "cobra_b14"},
		Notes: []string{
			"paper shape: error grows with angle, worse for smaller blocks; RainBar below COBRA",
		},
	}
	angles := []float64{0, 5, 10, 15, 20, 25}
	blocks := []int{10, 14}
	// Job k covers angle k/4, block size (k/2)%2, system k%2; the slot
	// layout matches the row order angle, rb_b10, cb_b10, rb_b14, cb_b14.
	rates := make([]float64, len(angles)*4)
	err := forEachPoint(o, len(rates), func(k int) error {
		i, j, s := k/4, (k/2)%2, k%2
		sys := []System{SystemRainBar, SystemCOBRA}[s]
		cfg := errChannel()
		cfg.ViewAngleDeg = angles[i]
		m, err := RunErrorRate(sys, RunConfig{Scale: o.Scale, Recorder: o.Recorder, BlockSize: blocks[j], DisplayRate: defaultRate, Channel: cfg, Seed: seedAt(o.Seed, i, 2*j+s)})
		if err != nil {
			return fmt.Errorf("fig10b %s a=%v b=%d: %w", sys, angles[i], blocks[j], err)
		}
		rates[k] = m.SymbolErrorRate
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, a := range angles {
		// Row order: angle, rainbar_b10, cobra_b10, rainbar_b14, cobra_b14.
		t.AddRow(a, rates[4*i], rates[4*i+1], rates[4*i+2], rates[4*i+3])
	}
	return t, nil
}

// Fig10cBlockSize: error rate vs block size.
func Fig10cBlockSize(o Options) (*Table, error) {
	t := &Table{
		ID:      "fig10c",
		Title:   "Error rate vs block size (px), RainBar vs COBRA",
		Columns: []string{"block_px", "rainbar_err", "cobra_err"},
		Notes: []string{
			"paper shape: error falls as blocks grow; RainBar below COBRA",
		},
	}
	blocks := []int{8, 9, 10, 11, 12, 13, 14}
	rates := make([]float64, 2*len(blocks))
	err := forEachPoint(o, len(rates), func(k int) error {
		i, sys := k/2, []System{SystemRainBar, SystemCOBRA}[k%2]
		m, err := RunErrorRate(sys, RunConfig{Scale: o.Scale, Recorder: o.Recorder, BlockSize: blocks[i], DisplayRate: defaultRate, Channel: errChannel(), Seed: seedAt(o.Seed, i, 0)})
		if err != nil {
			return fmt.Errorf("fig10c %s b=%d: %w", sys, blocks[i], err)
		}
		rates[k] = m.SymbolErrorRate
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, bs := range blocks {
		t.AddRow(bs, rates[2*i], rates[2*i+1])
	}
	return t, nil
}

// Fig10dBrightness: error rate vs screen brightness, indoor and outdoor.
func Fig10dBrightness(o Options) (*Table, error) {
	t := &Table{
		ID:      "fig10d",
		Title:   "Error rate vs screen brightness (%), indoor and outdoor",
		Columns: []string{"brightness_pct", "rainbar_in", "cobra_in", "rainbar_out", "cobra_out"},
		Notes: []string{
			"paper shape: error falls with brightness; outdoor worse than indoor; RainBar below COBRA",
			"RainBar's adaptive T_v (Eq. 2) absorbs dimming; COBRA's fixed threshold does not",
		},
	}
	brightness := []float64{0.4, 0.55, 0.7, 0.85, 1.0}
	ambients := []channel.Ambient{channel.AmbientIndoor, channel.AmbientOutdoor}
	// Job k covers brightness k/4, ambient (k/2)%2, system k%2.
	rates := make([]float64, len(brightness)*4)
	err := forEachPoint(o, len(rates), func(k int) error {
		i, j, s := k/4, (k/2)%2, k%2
		sys := []System{SystemRainBar, SystemCOBRA}[s]
		cfg := errChannel()
		cfg.ScreenBrightness = brightness[i]
		cfg.Ambient = ambients[j]
		m, err := RunErrorRate(sys, RunConfig{Scale: o.Scale, Recorder: o.Recorder, BlockSize: defaultBlock, DisplayRate: defaultRate, Channel: cfg, Seed: seedAt(o.Seed, i, 2*j+s)})
		if err != nil {
			return fmt.Errorf("fig10d %s b=%v: %w", sys, brightness[i], err)
		}
		rates[k] = m.SymbolErrorRate
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, b := range brightness {
		// Historical row order: rainbar indoor, rainbar outdoor, cobra
		// indoor, cobra outdoor.
		t.AddRow(b*100, rates[4*i], rates[4*i+2], rates[4*i+1], rates[4*i+3])
	}
	return t, nil
}

// displayRateSweep is shared by Fig11a/b and Fig12b.
var displayRateSweep = []float64{6, 8, 10, 12, 14, 16, 18, 20}

// Fig11DisplayRate produces both Fig. 11(a) decoding rate and Fig. 11(b)
// throughput vs display rate for both systems (one simulation pass).
func Fig11DisplayRate(o Options) (*Table, *Table, error) {
	ta := &Table{
		ID:      "fig11a",
		Title:   "Decoding rate vs display rate (fps), RainBar vs COBRA (f_c = 30)",
		Columns: []string{"fps", "rainbar_decrate", "cobra_decrate"},
		Notes: []string{
			"paper shape: both fall with f_d; COBRA collapses past f_c/2 = 15, RainBar stays >= ~0.9 at 18",
		},
	}
	tb := &Table{
		ID:      "fig11b",
		Title:   "Throughput (bytes/s) vs display rate (fps), RainBar vs COBRA",
		Columns: []string{"fps", "rainbar_Bps", "cobra_Bps"},
		Notes: []string{
			"paper shape: RainBar throughput rises with f_d; COBRA peaks near f_c/2 then drops",
		},
	}
	metrics := make([]Metrics, 2*len(displayRateSweep))
	err := forEachPoint(o, len(metrics), func(k int) error {
		i, sys := k/2, []System{SystemRainBar, SystemCOBRA}[k%2]
		m, err := RunStream(sys, RunConfig{Scale: o.Scale, Recorder: o.Recorder, BlockSize: defaultBlock, DisplayRate: displayRateSweep[i], Channel: streamChannel(), Seed: seedAt(o.Seed, i, 0)})
		if err != nil {
			return fmt.Errorf("fig11 %s fps=%v: %w", sys, displayRateSweep[i], err)
		}
		metrics[k] = m
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for i, fps := range displayRateSweep {
		rb, cb := metrics[2*i], metrics[2*i+1]
		ta.AddRow(fps, rb.DecodingRate, cb.DecodingRate)
		tb.AddRow(fps, rb.ThroughputBps, cb.ThroughputBps)
	}
	return ta, tb, nil
}

// Fig11cBlockSize: decoding rate and throughput vs block size for both
// systems (the paper's Fig. 11(c) comparison at the default display rate).
func Fig11cBlockSize(o Options) (*Table, error) {
	t := &Table{
		ID:      "fig11c",
		Title:   "Decoding rate and throughput vs block size, RainBar vs COBRA (f_d = 10)",
		Columns: []string{"block_px", "rainbar_decrate", "cobra_decrate", "rainbar_Bps", "cobra_Bps"},
		Notes: []string{
			"paper shape: RainBar >= COBRA on both metrics at every block size",
		},
	}
	blocks := []int{8, 10, 12, 14}
	metrics := make([]Metrics, 2*len(blocks))
	err := forEachPoint(o, len(metrics), func(k int) error {
		i, sys := k/2, []System{SystemRainBar, SystemCOBRA}[k%2]
		m, err := RunStream(sys, RunConfig{Scale: o.Scale, Recorder: o.Recorder, BlockSize: blocks[i], DisplayRate: defaultRate, Channel: streamChannel(), Seed: seedAt(o.Seed, i, 0)})
		if err != nil {
			return fmt.Errorf("fig11c %s b=%d: %w", sys, blocks[i], err)
		}
		metrics[k] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, bs := range blocks {
		rb, cb := metrics[2*i], metrics[2*i+1]
		t.AddRow(bs, rb.DecodingRate, cb.DecodingRate, rb.ThroughputBps, cb.ThroughputBps)
	}
	return t, nil
}

// Table1Throughput: average throughput under default conditions.
func Table1Throughput(o Options) (*Table, error) {
	t := &Table{
		ID:      "table1",
		Title:   "Average throughput under default conditions (d=12cm, v_a=0, s_b=100%)",
		Columns: []string{"system", "decoding_rate", "throughput_Bps"},
		Notes: []string{
			"paper shape: RainBar achieves higher average throughput than COBRA",
		},
	}
	systems := []System{SystemRainBar, SystemCOBRA}
	const reps = 3
	// One job per (system, repetition); the per-rep metrics are reduced in
	// repetition order afterwards so the float accumulation associates
	// exactly as the historical serial loop did.
	metrics := make([]Metrics, len(systems)*reps)
	err := forEachPoint(o, len(metrics), func(k int) error {
		j, r := k/reps, k%reps
		m, err := RunStream(systems[j], RunConfig{Scale: o.Scale, Recorder: o.Recorder, BlockSize: defaultBlock, DisplayRate: defaultRate, Channel: streamChannel(), Seed: seedAt(o.Seed, r, j)})
		if err != nil {
			return fmt.Errorf("table1 %s: %w", systems[j], err)
		}
		metrics[k] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	for j, sys := range systems {
		var dec, thr float64
		for r := 0; r < reps; r++ {
			dec += metrics[j*reps+r].DecodingRate
			thr += metrics[j*reps+r].ThroughputBps
		}
		t.AddRow(string(sys), dec/reps, thr/reps)
	}
	return t, nil
}

// Fig12aBlockSize: RainBar-only decoding rate and throughput vs block size.
func Fig12aBlockSize(o Options) (*Table, error) {
	t := &Table{
		ID:      "fig12a",
		Title:   "RainBar decoding rate and throughput vs block size (f_d = 10)",
		Columns: []string{"block_px", "decoding_rate", "throughput_Bps"},
		Notes: []string{
			"paper shape: decoding rate reaches ~1.0 by ~11 px; throughput falls as blocks grow",
		},
	}
	blocks := []int{8, 9, 10, 11, 12, 13, 14}
	metrics := make([]Metrics, len(blocks))
	err := forEachPoint(o, len(metrics), func(i int) error {
		m, err := RunStream(SystemRainBar, RunConfig{Scale: o.Scale, Recorder: o.Recorder, BlockSize: blocks[i], DisplayRate: defaultRate, Channel: streamChannel(), Seed: seedAt(o.Seed, i, 0)})
		if err != nil {
			return fmt.Errorf("fig12a b=%d: %w", blocks[i], err)
		}
		metrics[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, bs := range blocks {
		t.AddRow(bs, metrics[i].DecodingRate, metrics[i].ThroughputBps)
	}
	return t, nil
}

// Fig12bDisplayRate: RainBar-only decoding rate and throughput vs display
// rate.
func Fig12bDisplayRate(o Options) (*Table, error) {
	t := &Table{
		ID:      "fig12b",
		Title:   "RainBar decoding rate and throughput vs display rate (block = 12 px)",
		Columns: []string{"fps", "decoding_rate", "throughput_Bps"},
		Notes: []string{
			"paper shape: throughput rises with f_d; decoding rate stays >= ~0.91 at 18 fps",
		},
	}
	metrics := make([]Metrics, len(displayRateSweep))
	err := forEachPoint(o, len(metrics), func(i int) error {
		m, err := RunStream(SystemRainBar, RunConfig{Scale: o.Scale, Recorder: o.Recorder, BlockSize: defaultBlock, DisplayRate: displayRateSweep[i], Channel: streamChannel(), Seed: seedAt(o.Seed, i, 0)})
		if err != nil {
			return fmt.Errorf("fig12b fps=%v: %w", displayRateSweep[i], err)
		}
		metrics[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, fps := range displayRateSweep {
		t.AddRow(fps, metrics[i].DecodingRate, metrics[i].ThroughputBps)
	}
	return t, nil
}

// CapacityAnalysis reproduces §III-B: code-area blocks of the three
// systems on the Galaxy S4 (1920x1080, 13 px blocks). Analytic; always
// full scale.
func CapacityAnalysis(Options) (*Table, error) {
	t := &Table{
		ID:      "capacity",
		Title:   "Code-area capacity on Galaxy S4 (1920x1080, 13 px blocks), paper §III-B",
		Columns: []string{"system", "code_blocks", "paper_claims", "bytes_per_frame"},
		Notes: []string{
			"shape: RainBar > COBRA > RDCode; our counts are cell-exact, the paper's are its own arithmetic",
			"RDCode counted after excluding its 4 palette blocks per square (the paper's 10508 counts them in)",
		},
	}
	geo, err := layout.NewGeometry(1920, 1080, 13)
	if err != nil {
		return nil, err
	}
	t.AddRow("RainBar", geo.CodeAreaBlocks(), "11520", geo.CodeAreaBlocks()*2/8)

	cob, err := cobra.NewCodec(cobra.Config{ScreenW: 1920, ScreenH: 1080, BlockSize: 13})
	if err != nil {
		return nil, err
	}
	t.AddRow("COBRA", cob.CodeAreaBlocks(), "10857", cob.CodeAreaBlocks()*2/8)

	// RDCode is counted analytically, as in the paper: 12x12-block squares,
	// each spending 4 blocks on its color palette. Its code area is the
	// non-palette blocks of every whole square; screen area outside whole
	// squares is wasted.
	const rdSquare, rdPalette = 12, 4
	rd := (1920 / 13 / rdSquare) * (1080 / 13 / rdSquare) * (rdSquare*rdSquare - rdPalette)
	t.AddRow("RDCode", rd, "10508", rd*2/8)

	if geo.CodeAreaBlocks() <= cob.CodeAreaBlocks() || cob.CodeAreaBlocks() <= rd {
		return nil, fmt.Errorf("capacity ordering violated: %d, %d, %d",
			geo.CodeAreaBlocks(), cob.CodeAreaBlocks(), rd)
	}
	return t, nil
}

// LocalizationError reproduces the Fig. 3/4 comparison: mean block-center
// localization error (px) of both decoders against the channel's exact
// forward map, under increasing distortion.
func LocalizationError(o Options) (*Table, error) {
	t := &Table{
		ID:      "fig3-4",
		Title:   "Mean block-center localization error (px) under distortion",
		Columns: []string{"condition", "rainbar_px", "cobra_px"},
		Notes: []string{
			"paper shape: COBRA's straight-line intersection degrades with distortion; RainBar's progressive locators stay near the block center",
		},
	}
	conditions := []struct {
		name string
		mut  func(*channel.Config)
	}{
		{"head-on, no lens", func(c *channel.Config) { c.ViewAngleDeg = 0; c.LensK1, c.LensK2 = 0, 0 }},
		{"angle 15, mild lens", func(c *channel.Config) { c.ViewAngleDeg = 15 }},
		{"angle 25, strong lens", func(c *channel.Config) { c.ViewAngleDeg = 25; c.LensK1, c.LensK2 = 0.05, 0.008 }},
	}
	type locResult struct{ rb, cb float64 }
	results := make([]locResult, len(conditions))
	err := forEachPoint(o, len(conditions), func(i int) error {
		cfg := baseChannel()
		cfg.JitterPx = 0
		cfg.NoiseStdDev = 1
		conditions[i].mut(&cfg)
		rbErr, cbErr, err := localizationErrorAt(o, cfg, seedAt(o.Seed, i, 0))
		if err != nil {
			return fmt.Errorf("localization %q: %w", conditions[i].name, err)
		}
		results[i] = locResult{rbErr, cbErr}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, cond := range conditions {
		t.AddRow(cond.name, results[i].rb, results[i].cb)
	}
	return t, nil
}

func localizationErrorAt(o Options, cfg channel.Config, seed int64) (rbErr, cbErr float64, err error) {
	fwd, err := cfg.ForwardMap(o.Scale.ScreenW, o.Scale.ScreenH)
	if err != nil {
		return 0, 0, err
	}

	// RainBar.
	geo, err := layout.NewGeometry(o.Scale.ScreenW, o.Scale.ScreenH, defaultBlock)
	if err != nil {
		return 0, 0, err
	}
	codec, err := core.NewCodec(core.Config{Geometry: geo})
	if err != nil {
		return 0, 0, err
	}
	payload := workload.Random(codec.FrameCapacity(), seed)
	f, err := codec.EncodeFrame(payload, 0, false)
	if err != nil {
		return 0, 0, err
	}
	ch, err := channel.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	capt, err := ch.Capture(f.Render())
	if err != nil {
		return 0, 0, err
	}
	centers, err := codec.LocateCenters(capt)
	if err != nil {
		return 0, 0, fmt.Errorf("rainbar locate: %w", err)
	}
	var sum float64
	for i, cell := range geo.DataCells() {
		x, y := geo.BlockCenterPx(cell.Row, cell.Col)
		truth := fwd(pt(x, y))
		sum += centers[i].Dist(truth)
	}
	rbErr = sum / float64(len(centers))

	// COBRA.
	cob, err := cobra.NewCodec(cobra.Config{ScreenW: o.Scale.ScreenW, ScreenH: o.Scale.ScreenH, BlockSize: defaultBlock})
	if err != nil {
		return 0, 0, err
	}
	cf, err := cob.EncodeFrame(workload.Random(cob.FrameCapacity(), seed+1), 0, false)
	if err != nil {
		return 0, 0, err
	}
	ch2, err := channel.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	capt2, err := ch2.Capture(cf.Render())
	if err != nil {
		return 0, 0, err
	}
	cc, err := cob.LocateCenters(capt2)
	if err != nil {
		// COBRA losing its corner trackers outright under extreme
		// distortion is part of the result, not an experiment failure:
		// report a sentinel of one full screen diagonal.
		return rbErr, math.Hypot(float64(o.Scale.ScreenW), float64(o.Scale.ScreenH)), nil
	}
	grid := cob.DataCellGrid()
	sum = 0
	bs := float64(defaultBlock)
	for i, rc := range grid {
		truth := fwd(pt((float64(rc[1])+0.5)*bs, (float64(rc[0])+0.5)*bs))
		sum += cc[i].Dist(truth)
	}
	cbErr = sum / float64(len(cc))
	return rbErr, cbErr, nil
}

// DecodeTime reproduces §IV-D: average per-frame decode time over a batch
// of captures of distinct frames, decoded by one receiver with sequential
// Ingest (one thread) and by one with IngestBatch (GOMAXPROCS workers),
// plus COBRA's modeled HSV-enhancement surcharge.
func DecodeTime(o Options) (*Table, error) {
	t := &Table{
		ID:      "decode-time",
		Title:   "Average decode time per frame (ms), sequential Ingest vs IngestBatch on GOMAXPROCS threads",
		Columns: []string{"system", "threads", "ms_per_frame"},
		Notes: []string{
			"paper shape: multi-threading cuts per-frame time; COBRA pays a +12 ms HSV-enhancement surcharge",
			"absolute times are laptop-Go, not Galaxy-S4-Java; only ratios are meaningful",
		},
	}
	geo, err := layout.NewGeometry(o.Scale.ScreenW, o.Scale.ScreenH, defaultBlock)
	if err != nil {
		return nil, err
	}
	codec, err := core.NewCodec(core.Config{Geometry: geo})
	if err != nil {
		return nil, err
	}
	ch, err := channel.New(baseChannel())
	if err != nil {
		return nil, err
	}
	const batch = 8
	caps := make([]*raster.Image, batch)
	for i := range caps {
		f, err := codec.EncodeFrame(workload.Random(codec.FrameCapacity(), int64(i)), uint16(i), false)
		if err != nil {
			return nil, err
		}
		caps[i], err = ch.Capture(f.Render())
		if err != nil {
			return nil, err
		}
	}

	// Each row times a fresh receiver through the whole batch: grid
	// decode, vote merge and RS assembly of every frame.
	sequential := func(rx *core.Receiver) []error {
		errs := make([]error, len(caps))
		for i, capt := range caps {
			errs[i] = rx.Ingest(capt)
		}
		return errs
	}
	measure := func(ingest func(*core.Receiver) []error) (time.Duration, error) {
		rx := core.NewReceiver(codec)
		//lint:allow RB-D1 wall-clock stopwatch for the table-1 decode-latency column; the measured duration is reported as telemetry and never feeds a decode decision
		start := time.Now()
		errs := ingest(rx)
		//lint:allow RB-D1 closes the table-1 decode-latency stopwatch opened above; telemetry only
		elapsed := time.Since(start)
		for _, e := range errs {
			if e != nil {
				return 0, e
			}
		}
		return elapsed / batch, nil
	}

	// An untimed pass fills the decode scratch pool, so neither row pays
	// the first-capture allocations.
	if _, err := measure(sequential); err != nil {
		return nil, err
	}
	single, err := measure(sequential)
	if err != nil {
		return nil, err
	}
	threads := runtime.GOMAXPROCS(0)
	multi, err := measure(func(rx *core.Receiver) []error { return rx.IngestBatch(caps) })
	if err != nil {
		return nil, err
	}
	t.AddRow("RainBar", 1, float64(single.Microseconds())/1000)
	t.AddRow("RainBar", threads, float64(multi.Microseconds())/1000)
	t.AddRow("COBRA (modeled +HSV-enh)", 1, float64((single+cobra.EnhancementCost).Microseconds())/1000)
	if threads == 1 {
		t.Notes = append(t.Notes, "GOMAXPROCS is 1: IngestBatch decodes sequentially, so both RainBar rows time the same loop")
	}

	// Stage breakdown over the batch (detect / locate / extract / correct).
	var stages core.StageTimings
	for _, capt := range caps {
		_, st, err := codec.DecodeFrameTimed(capt)
		if err != nil {
			return nil, err
		}
		stages.Detect += st.Detect
		stages.Locate += st.Locate
		stages.Extract += st.Extract
		stages.Correct += st.Correct
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 / batch }
	t.Notes = append(t.Notes, fmt.Sprintf(
		"RainBar stage breakdown (ms/frame): detect %.2f, locate %.2f, extract %.2f, RS+CRC %.2f",
		ms(stages.Detect), ms(stages.Locate), ms(stages.Extract), ms(stages.Correct)))
	return t, nil
}

// TextTransfer reproduces §V: a text file transferred with retransmission
// over three channel qualities.
func TextTransfer(o Options) (*Table, error) {
	t := &Table{
		ID:      "text-transfer",
		Title:   "Text-file transfer with retransmission (§V)",
		Columns: []string{"condition", "rounds", "frames_sent", "frames_needed", "goodput_Bps", "bit_exact"},
		Notes: []string{
			"paper claim: RS + selective retransmission delivers files bit-exact without RDCode's always-on redundancy",
		},
	}
	conditions := []struct {
		name string
		mut  func(*channel.Config)
	}{
		{"default", func(c *channel.Config) {}},
		{"dim outdoor", func(c *channel.Config) { c.ScreenBrightness = 0.6; c.Ambient = channel.AmbientOutdoor }},
		{"angle 15, noisy", func(c *channel.Config) { c.ViewAngleDeg = 15; c.NoiseStdDev = 6 }},
	}
	type xferResult struct {
		stats *transport.Stats
		exact bool
	}
	results := make([]xferResult, len(conditions))
	err := forEachPoint(o, len(conditions), func(i int) error {
		cfg := baseChannel()
		conditions[i].mut(&cfg)
		cfg.Seed = seedAt(o.Seed, i, 0)

		geo, err := layout.NewGeometry(o.Scale.ScreenW, o.Scale.ScreenH, defaultBlock)
		if err != nil {
			return err
		}
		ccfg := core.Config{Geometry: geo, DisplayRate: defaultRate, AppType: uint8(transport.AppText), Recorder: o.Recorder}
		combine := o.Recovery.Configure(&ccfg)
		codec, err := core.NewCodec(ccfg)
		if err != nil {
			return err
		}
		link := transport.Link{
			Channel:     channel.MustNew(cfg),
			Camera:      cameraDefault(),
			DisplayRate: defaultRate,
		}
		link.Channel.Recorder = o.Recorder
		link.Camera.Recorder = o.Recorder
		sess := &transport.Session{
			Codec:     codec,
			Link:      link,
			MaxRounds: 10,
			Combine:   combine,
			Recorder:  o.Recorder,
		}
		text := workload.Text(codec.FrameCapacity()*4, seedAt(o.Seed, i, 1))
		got, stats, err := sess.Transfer(text)
		if stats == nil {
			return fmt.Errorf("text transfer %q: %w", conditions[i].name, err)
		}
		results[i] = xferResult{stats, err == nil && string(got) == string(text)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, cond := range conditions {
		stats := results[i].stats
		t.AddRow(cond.name, stats.Rounds, stats.FramesSent, stats.FramesNeeded, stats.Goodput, fmt.Sprint(results[i].exact))
	}
	return t, nil
}

// HSVvsRGB reproduces the §III-F ablation: classification accuracy of the
// adaptive HSV classifier vs a fixed-threshold RGB classifier across
// screen brightness.
func HSVvsRGB(o Options) (*Table, error) {
	t := &Table{
		ID:      "hsv-vs-rgb",
		Title:   "Block color recognition accuracy: adaptive HSV vs fixed RGB thresholds",
		Columns: []string{"brightness_pct", "hsv_acc", "rgb_acc"},
		Notes: []string{
			"shape: HSV accuracy stays high across brightness; RGB thresholds collapse when dim",
		},
	}
	brightness := []float64{0.3, 0.5, 0.7, 1.0}
	type accResult struct{ hsv, rgb float64 }
	results := make([]accResult, len(brightness))
	err := forEachPoint(o, len(brightness), func(i int) error {
		// Each job builds its own codec: construction is deterministic and
		// cheap, and it keeps jobs free of shared mutable state.
		geo, err := layout.NewGeometry(o.Scale.ScreenW, o.Scale.ScreenH, defaultBlock)
		if err != nil {
			return err
		}
		codec, err := core.NewCodec(core.Config{Geometry: geo})
		if err != nil {
			return err
		}
		cfg := baseChannel()
		cfg.ScreenBrightness = brightness[i]
		cfg.Seed = seedAt(o.Seed, i, 0)
		ch, err := channel.New(cfg)
		if err != nil {
			return err
		}
		f, err := codec.EncodeFrame(workload.Random(codec.FrameCapacity(), seedAt(o.Seed, i, 1)), 0, false)
		if err != nil {
			return err
		}
		// Photometric-only capture: this ablation isolates color
		// recognition from localization.
		capt := ch.Photometric(f.Render())

		hsvOK, rgbOK, total := 0, 0, 0
		tv := estimateTVOf(capt)
		hsv := colorspace.NewClassifier(tv)
		var rgb colorspace.RGBClassifier
		g := codec.Geometry()
		bs := g.BlockSize()
		for _, cell := range g.DataCells() {
			truth := f.ColorAt(cell.Row, cell.Col)
			x, y := cell.Col*bs+bs/2, cell.Row*bs+bs/2
			p := capt.MeanFilterAt(x, y)
			if hsv.ClassifyRGB(p) == truth {
				hsvOK++
			}
			if rgb.Classify(p) == truth {
				rgbOK++
			}
			total++
		}
		results[i] = accResult{float64(hsvOK) / float64(total), float64(rgbOK) / float64(total)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, b := range brightness {
		t.AddRow(b*100, results[i].hsv, results[i].rgb)
	}
	return t, nil
}

// estimateTVOf samples a photometric capture for the adaptive threshold
// (the experiment-local twin of the decoder's internal estimate).
func estimateTVOf(img *raster.Image) float64 {
	var values []float64
	for y := 2; y < img.H; y += img.H / 16 {
		for x := 2; x < img.W; x += img.W / 16 {
			values = append(values, img.At(x, y).ToHSV().V)
		}
	}
	return colorspace.EstimateTV(values)
}

// SyncAblation reproduces E16: decoding rate vs display rate with tracking
// bar synchronization enabled and disabled.
func SyncAblation(o Options) (*Table, error) {
	t := &Table{
		ID:      "sync-ablation",
		Title:   "RainBar decoding rate vs display rate, tracking-bar sync on vs off",
		Columns: []string{"fps", "sync_on", "sync_off"},
		Notes: []string{
			"shape: without tracking bars the decoding rate collapses as f_d approaches f_c; with them it degrades gently",
		},
	}
	rates := []float64{10, 15, 20, 25}
	// Job k covers display rate k/2 with sync on (even k) or off (odd k).
	decRates := make([]float64, 2*len(rates))
	err := forEachPoint(o, len(decRates), func(k int) error {
		i, off := k/2, k%2 == 1
		dec, err := runStreamSync(o, rates[i], off, seedAt(o.Seed, i, 0))
		if err != nil {
			state := "on"
			if off {
				state = "off"
			}
			return fmt.Errorf("sync %s fps=%v: %w", state, rates[i], err)
		}
		decRates[k] = dec
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, fps := range rates {
		t.AddRow(fps, decRates[2*i], decRates[2*i+1])
	}
	return t, nil
}
