package transport

import (
	"fmt"
)

// Lossy delivery (§V, technical-report cases): unlike text, image and
// audio payloads tolerate missing pieces, so instead of retransmitting
// until perfect, the sender stops after a bounded number of rounds and
// the receiver conceals whatever never arrived — gray blocks in images,
// silence-level samples in audio. This is RainBar's application-driven
// alternative to RDCode's always-on redundancy.

// LossyStats extends Stats with concealment accounting.
type LossyStats struct {
	Stats
	// ChunksMissing counts chunks concealed rather than delivered.
	ChunksMissing int
	// MissingChunks lists the concealed chunk indices.
	MissingChunks []int
	// BytesConcealed counts payload bytes filled by concealment.
	BytesConcealed int
}

// FileWithConcealment reassembles the file even when chunks are missing,
// filling gaps per the application type. It fails only when the manifest
// chunk (index 0) never arrived — without it neither length nor type is
// known.
func (c *Collector) FileWithConcealment() ([]byte, AppType, *ConcealmentReport, error) {
	if !c.haveMeta {
		return nil, 0, nil, fmt.Errorf("transport: manifest chunk missing; nothing to conceal against")
	}
	report := &ConcealmentReport{}
	chunkSize := len(c.chunks[0])
	blob := make([]byte, 0, c.total*chunkSize)
	for i := 0; i < c.total; i++ {
		chunk, ok := c.chunks[i]
		if !ok {
			report.MissingChunks = append(report.MissingChunks, i)
			size := chunkSize
			if i == c.total-1 {
				size = manifestLen + c.fileLen - i*chunkSize
				if size < 0 || size > chunkSize {
					size = chunkSize
				}
			}
			chunk = concealChunk(c.app, size)
			report.BytesConcealed += size
		}
		blob = append(blob, chunk...)
	}
	if len(blob) < manifestLen+c.fileLen {
		return nil, 0, nil, fmt.Errorf("transport: reassembled %d bytes, manifest claims %d", len(blob)-manifestLen, c.fileLen)
	}
	return blob[manifestLen : manifestLen+c.fileLen], c.app, report, nil
}

// ConcealmentReport describes what the receiver had to invent.
type ConcealmentReport struct {
	MissingChunks  []int
	BytesConcealed int
}

// concealChunk fabricates plausible filler for a missing chunk.
func concealChunk(app AppType, size int) []byte {
	out := make([]byte, size)
	var fill byte
	switch app {
	case AppImage:
		fill = 0x80 // mid-gray: least-objectionable image filler
	case AppAudio:
		fill = 0x80 // midpoint sample: silence in unsigned 8-bit PCM
	default:
		fill = 0x00
	}
	for i := range out {
		out[i] = fill
	}
	return out
}

// TransferLossy is Transfer for loss-tolerant payloads: it runs at most
// MaxRounds rounds (default 2 — the §V point is that media needs little
// repair) at the link's display rate, with no frame budget and no
// cross-round combining, then conceals the remainder. The error is
// non-nil only when the manifest never arrives or the link fails.
func (s *Session) TransferLossy(data []byte) ([]byte, *LossyStats, error) {
	x, err := s.begin(data, true)
	if err != nil {
		return nil, nil, err
	}
	if err := x.run(); err != nil {
		return nil, nil, err
	}
	return x.sealLossy()
}

// sealLossy finishes a lossy transfer: it freezes the stats as Seal does,
// then reassembles the payload with every missing chunk concealed.
func (x *Xfer) sealLossy() ([]byte, *LossyStats, error) {
	x.freeze()
	stats := &LossyStats{Stats: *x.stats}
	result, _, report, err := x.collector.FileWithConcealment()
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
