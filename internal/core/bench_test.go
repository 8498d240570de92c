package core

import (
	"testing"

	"rainbar/internal/channel"
	"rainbar/internal/obs"
	"rainbar/internal/raster"
)

// benchCapture prepares one default-channel capture of a full frame.
func benchCapture(b *testing.B) (*Codec, *raster.Image) {
	b.Helper()
	c := testCodec(b)
	f, err := c.EncodeFrame(payloadFor(c, 1), 0, false)
	if err != nil {
		b.Fatal(err)
	}
	capt, err := channel.MustNew(channel.DefaultConfig()).Capture(f.Render())
	if err != nil {
		b.Fatal(err)
	}
	return c, capt
}

func BenchmarkEncodeFrame(b *testing.B) {
	c := testCodec(b)
	payload := payloadFor(c, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.EncodeFrame(payload, 0, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRenderFrame(b *testing.B) {
	c := testCodec(b)
	f, err := c.EncodeFrame(payloadFor(c, 1), 0, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Render()
	}
}

func BenchmarkFixImage(b *testing.B) {
	// Detection + progressive localization: the geometric front half of
	// the decoder (§III-C/E).
	c, capt := benchCapture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.FixImage(capt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeGrid(b *testing.B) {
	// The full per-capture decode pipeline (§III-C..F), the number §IV-D's
	// real-time budget is about.
	c, capt := benchCapture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DecodeGrid(capt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeFrame(b *testing.B) {
	c, capt := benchCapture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.DecodeFrame(capt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReceiverProcess(b *testing.B) {
	// Receiver-side cost of one capture batch: grid decode, row attribution
	// and voting, payload assembly. This is the per-capture work a streaming
	// receiver does, so it bounds the sustainable capture rate.
	c := testCodec(b)
	ch := channel.MustNew(channel.DefaultConfig())
	const batch = 4
	caps := make([]*raster.Image, batch)
	for i := range caps {
		f, err := c.EncodeFrame(payloadFor(c, int64(i)), uint16(i), false)
		if err != nil {
			b.Fatal(err)
		}
		caps[i], err = ch.Capture(f.Render())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rx := NewReceiver(c)
		for _, capt := range caps {
			if err := rx.Ingest(capt); err != nil {
				b.Fatal(err)
			}
		}
		rx.Flush()
	}
}

func BenchmarkReceiverProcessSteady(b *testing.B) {
	// BenchmarkReceiverProcess with one long-lived receiver recycled via
	// Reset between batches — the steady state a continuously-running
	// receiver reaches, where every decode intermediate comes from scratch
	// buffers — with the recovery ladder off and on. The contract (enforced
	// by TestReceiverSteadyStateAllocFree and scripts/ci.sh) is 0 B/op and
	// 0 allocs/op in both.
	for _, tc := range []struct {
		name   string
		budget int
	}{
		{"recovery_off", 0},
		{"recovery_on", DefaultRecoveryBudget},
	} {
		b.Run(tc.name, func(b *testing.B) {
			c, err := NewCodec(Config{Geometry: testGeometry(b), DisplayRate: 10, AppType: 1, RecoveryBudget: tc.budget})
			if err != nil {
				b.Fatal(err)
			}
			process := steadyReceiver(b, c)
			process() // warm the scratch buffers and freelists
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				process()
			}
		})
	}
}

func BenchmarkReceiverIngestBatch(b *testing.B) {
	// The batched front end: parallel grid decodes, sequential merge.
	// Single-core it tracks BenchmarkReceiverProcessSteady; with spare CPUs
	// the decode phase scales while results stay bit-identical.
	c := testCodec(b)
	ch := channel.MustNew(channel.DefaultConfig())
	const batch = 4
	caps := make([]*raster.Image, batch)
	for i := range caps {
		f, err := c.EncodeFrame(payloadFor(c, int64(i)), uint16(i), false)
		if err != nil {
			b.Fatal(err)
		}
		caps[i], err = ch.Capture(f.Render())
		if err != nil {
			b.Fatal(err)
		}
	}
	rx := NewReceiver(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, err := range rx.IngestBatch(caps) {
			if err != nil {
				b.Fatal(err)
			}
		}
		rx.Flush()
		rx.Reset()
	}
}

func BenchmarkAssemblePayload(b *testing.B) {
	// RS + checksum only: the non-vision tail of the decoder.
	c, capt := benchCapture(b)
	gd, err := c.DecodeGrid(capt)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.AssemblePayload(gd.Cells, gd.Header); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReceiverProcessRecorded(b *testing.B) {
	// BenchmarkReceiverProcess with a live in-memory recorder attached —
	// the pair bounds the observability overhead on the hot path (the
	// acceptance budget is <=3% over the no-op baseline).
	c, err := NewCodec(Config{
		Geometry: testGeometry(b), DisplayRate: 10, AppType: 1,
		Recorder: obs.NewMemory(),
	})
	if err != nil {
		b.Fatal(err)
	}
	ch := channel.MustNew(channel.DefaultConfig())
	const batch = 4
	caps := make([]*raster.Image, batch)
	for i := range caps {
		f, err := c.EncodeFrame(payloadFor(c, int64(i)), uint16(i), false)
		if err != nil {
			b.Fatal(err)
		}
		caps[i], err = ch.Capture(f.Render())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rx := NewReceiver(c)
		for _, capt := range caps {
			if err := rx.Ingest(capt); err != nil {
				b.Fatal(err)
			}
		}
		rx.Flush()
	}
}
