package transport

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"rainbar/internal/camera"
	"rainbar/internal/channel"
	"rainbar/internal/core"
	"rainbar/internal/core/layout"
	"rainbar/internal/faults"
	"rainbar/internal/obs"
	"rainbar/internal/workload"
)

func TestTransferLossyCleanChannelDeliversEverything(t *testing.T) {
	s := testSession(t, channel.DefaultConfig(), 10)
	want := workload.AudioLike(3*s.Codec.FrameCapacity(), 21)
	got, stats, err := s.TransferLossy(want)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ChunksMissing != 0 {
		t.Errorf("%d chunks concealed on a clean channel", stats.ChunksMissing)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("clean lossy transfer not bit-exact")
	}
	if stats.App != AppAudio {
		t.Errorf("app = %v", stats.App)
	}
}

func TestTransferLossyConcealsOnHarshChannel(t *testing.T) {
	// Search a few channel severities/seeds for the partial-delivery
	// regime (some chunks arrive, some don't) that exercises concealment.
	var (
		got   []byte
		want  []byte
		stats *LossyStats
	)
	found := false
	for _, angle := range []float64{15, 20, 24} {
		for seed := int64(1); seed <= 3 && !found; seed++ {
			cfg := channel.DefaultConfig()
			cfg.ViewAngleDeg = angle
			cfg.ChromaNoiseStdDev = 55
			cfg.ChromaNoiseScalePx = 8
			cfg.Seed = seed
			s := testSession(t, cfg, 10)
			s.MaxRounds = 1
			want = workload.ImageLike(6*s.Codec.FrameCapacity(), 22)
			g, st, err := s.TransferLossy(want)
			if err != nil || st.ChunksMissing == 0 || st.ChunksMissing == st.FramesNeeded {
				continue
			}
			got, stats = g, st
			found = true
		}
		if found {
			break
		}
	}
	if !found {
		t.Skip("no channel severity produced partial delivery; concealment not exercised")
	}
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d (concealment must preserve size)", len(got), len(want))
	}
	// Concealed regions are mid-gray; delivered regions must match.
	concealed := map[int]bool{}
	for _, ci := range stats.MissingChunks {
		concealed[ci] = true
	}
	ref := testSession(t, channelDefaultForTest(), 10)
	cs := FileCodec{Codec: ref.Codec}.ChunkSize()
	for i := range got {
		chunkIdx := (i + manifestLen) / cs
		if concealed[chunkIdx] {
			continue
		}
		if got[i] != want[i] {
			t.Fatalf("delivered byte %d differs outside concealed chunks %v", i, stats.MissingChunks)
		}
	}
	t.Logf("concealed %d chunks (%d bytes) after %d round(s)", stats.ChunksMissing, stats.BytesConcealed, stats.Rounds)
}

// channelDefaultForTest returns the default condition (helper keeps the
// session builder signature uniform).
func channelDefaultForTest() channel.Config { return channel.DefaultConfig() }

func TestFileWithConcealmentRequiresManifest(t *testing.T) {
	c := NewCollector()
	if _, _, _, err := c.FileWithConcealment(); err == nil {
		t.Fatal("concealment without manifest succeeded")
	}
}

func TestFileWithConcealmentFillsGaps(t *testing.T) {
	// Build chunks by hand: a 2-chunk image file, drop chunk 1.
	geoSession := testSession(t, channel.DefaultConfig(), 10)
	fc := FileCodec{Codec: geoSession.Codec}
	data := workload.ImageLike(fc.ChunkSize()+20, 5)
	p0, err := fc.Chunk(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector()
	if err := col.Add(p0); err != nil {
		t.Fatal(err)
	}
	got, app, report, err := col.FileWithConcealment()
	if err != nil {
		t.Fatal(err)
	}
	if app != AppImage {
		t.Errorf("app = %v", app)
	}
	if len(got) != len(data) {
		t.Fatalf("length %d, want %d", len(got), len(data))
	}
	if len(report.MissingChunks) != 1 || report.MissingChunks[0] != 1 {
		t.Fatalf("missing = %v, want [1]", report.MissingChunks)
	}
	// The delivered prefix must match; the concealed tail must be gray.
	deliveredLen := fc.ChunkSize() - manifestLen
	if !bytes.Equal(got[:deliveredLen], data[:deliveredLen]) {
		t.Fatal("delivered prefix mangled")
	}
	for i := deliveredLen; i < len(got); i++ {
		if got[i] != 0x80 {
			t.Fatalf("concealed byte %d = %#x, want 0x80", i, got[i])
		}
	}
}

func TestConcealChunkFillValues(t *testing.T) {
	cases := map[AppType]byte{
		AppImage:   0x80,
		AppAudio:   0x80,
		AppText:    0x00,
		AppGeneric: 0x00,
	}
	for app, want := range cases {
		chunk := concealChunk(app, 8)
		if len(chunk) != 8 {
			t.Fatalf("%v: len %d", app, len(chunk))
		}
		for _, b := range chunk {
			if b != want {
				t.Fatalf("%v: fill %#x, want %#x", app, b, want)
			}
		}
	}
}

// transferLossyRef is TransferLossy's former hand-written round loop, kept
// as the reference the Xfer-driven TransferLossy must reproduce.
func transferLossyRef(s *Session, data []byte) ([]byte, *LossyStats, error) {
	if len(data) == 0 {
		return nil, nil, fmt.Errorf("transport: empty payload")
	}
	if err := s.Link.Validate(); err != nil {
		return nil, nil, err
	}
	if s.MaxRounds < 0 {
		return nil, nil, fmt.Errorf("transport: MaxRounds %d is negative; zero means default", s.MaxRounds)
	}
	maxRounds := s.MaxRounds
	if maxRounds == 0 {
		maxRounds = 2
	}

	fc := FileCodec{Codec: s.Codec}
	if fc.ChunkSize() <= 0 {
		return nil, nil, fmt.Errorf("transport: frame capacity %d too small for chunk prefix", s.Codec.FrameCapacity())
	}
	nChunks := fc.NumChunks(len(data))
	missing := make([]int, nChunks)
	for i := range missing {
		missing[i] = i
	}
	collector := NewCollector()
	stats := &LossyStats{Stats: Stats{FramesNeeded: nChunks, App: Classify(data)}}
	faultBase, dropBase := s.faultBaseline()
	var nextSeq uint16

	s.obsInc(obs.MTransportTransfers, 1)
	for round := 1; round <= maxRounds && len(missing) > 0; round++ {
		stats.Rounds = round
		s.obsInc(obs.MTransportRounds, 1)
		endRound := obs.OrNop(s.Recorder).Span(obs.MTransportRoundSeconds)
		sent, airTime, err := s.sendRound(fc, data, missing, &nextSeq, collector, nil, s.Link.DisplayRate, &stats.Stats)
		endRound()
		if err != nil {
			return nil, nil, err
		}
		s.obsInc(obs.MTransportFramesSent, int64(sent))
		if round > 1 {
			s.obsInc(obs.MTransportRetransmits, int64(sent))
		}
		stats.FramesSent += sent
		stats.AirTime += airTime
		if stats.RateRounds == nil {
			stats.RateRounds = make(map[float64]int)
		}
		stats.RateRounds[s.Link.DisplayRate]++
		if m := collector.Missing(); m != nil {
			missing = m
		}
		if collector.Complete() {
			missing = nil
		}
	}
	stats.FinalDisplayRate = s.Link.DisplayRate
	stats.ChunksDelivered = nChunks - len(missing)
	s.faultDelta(&stats.Stats, faultBase, dropBase)

	result, _, report, err := collector.FileWithConcealment()
	if err != nil {
		return nil, stats, err
	}
	stats.ChunksMissing = len(report.MissingChunks)
	stats.MissingChunks = report.MissingChunks
	stats.BytesConcealed = report.BytesConcealed
	if stats.AirTime > 0 {
		stats.Goodput = float64(len(result)-report.BytesConcealed) / stats.AirTime.Seconds()
	}
	return result, stats, nil
}

// TestTransferLossyMatchesReference: TransferLossy, now a lossy plan run
// on the Xfer step loop, delivers exactly what the hand-written loop did
// — payload, LossyStats and error — with recovery off and on, on clean
// and harsh channels, at the default (2), 1 and 3 rounds, under a fault
// chain, and on a session whose StallRounds, FrameBudget and Combine a
// lossy transfer ignores; and rejects a negative MaxRounds as it did. It
// counts the cases that concealed something, so the generated channels
// keep exercising concealment.
func TestTransferLossyMatchesReference(t *testing.T) {
	geo, err := layout.NewGeometry(480, 270, 10)
	if err != nil {
		t.Fatal(err)
	}
	build := func(recovery RecoveryMode, harsh bool, rounds int, faultSpec string, knobs bool) *Session {
		cfg := core.Config{Geometry: geo, DisplayRate: 10}
		combine := recovery.Configure(&cfg)
		codec, err := core.NewCodec(cfg)
		if err != nil {
			t.Fatal(err)
		}
		chCfg := channel.DefaultConfig()
		if harsh {
			chCfg.ViewAngleDeg = 22
			chCfg.ChromaNoiseStdDev = 60
			chCfg.ChromaNoiseScalePx = 8
			chCfg.Seed = int64(rounds + 5)
		}
		chain, err := faults.ParseSpec(faultSpec)
		if err != nil {
			t.Fatal(err)
		}
		cam := camera.Default()
		cam.Faults = chain
		s := &Session{
			Codec:     codec,
			Link:      Link{Channel: channel.MustNew(chCfg), Camera: cam, DisplayRate: 10},
			MaxRounds: rounds,
			Combine:   combine,
		}
		if knobs {
			s.StallRounds, s.FrameBudget, s.Combine = 1, 3, true
		}
		return s
	}
	cases, concealed, failed := 0, 0, 0
	for _, recovery := range []RecoveryMode{RecoveryOff, RecoveryCombine} {
		for _, harsh := range []bool{false, true} {
			for _, rounds := range []int{0, 1, 3} {
				for _, faultSpec := range []string{"", "drop=0.6,occlude=0.3,splice=0.1,seed=4"} {
					for _, knobs := range []bool{false, true} {
						name := fmt.Sprintf("%v/harsh=%v/rounds=%d/faults=%q/knobs=%v", recovery, harsh, rounds, faultSpec, knobs)
						frames := 1 + cases%4
						data := workload.ImageLike(frames*FileCodec{Codec: build(recovery, harsh, rounds, faultSpec, knobs).Codec}.ChunkSize()-manifestLen, int64(cases))
						if cases%2 == 1 {
							data = workload.AudioLike(len(data), int64(cases))
						}
						wantPayload, wantStats, wantErr := transferLossyRef(build(recovery, harsh, rounds, faultSpec, knobs), data)
						gotPayload, gotStats, gotErr := build(recovery, harsh, rounds, faultSpec, knobs).TransferLossy(data)
						if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
							t.Errorf("%s: err %v, reference %v", name, gotErr, wantErr)
						}
						if !bytes.Equal(gotPayload, wantPayload) {
							t.Errorf("%s: payloads differ", name)
						}
						if !reflect.DeepEqual(gotStats, wantStats) {
							t.Errorf("%s: stats %+v, reference %+v", name, gotStats, wantStats)
						}
						cases++
						if wantStats != nil && wantStats.ChunksMissing > 0 {
							concealed++
						}
						if wantErr != nil {
							failed++
						}
					}
				}
			}
		}
	}
	t.Logf("%d cases, %d with concealment, %d failed", cases, concealed, failed)
	if concealed == 0 {
		t.Fatalf("none of %d cases concealed a chunk; the comparison never reached concealment", cases)
	}

	data := workload.ImageLike(100, 1)
	_, _, wantErr := transferLossyRef(build(RecoveryOff, false, -1, "", false), data)
	if _, _, gotErr := build(RecoveryOff, false, -1, "", false).TransferLossy(data); wantErr == nil || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Errorf("MaxRounds -1: err %v, reference %v", gotErr, wantErr)
	}
}
