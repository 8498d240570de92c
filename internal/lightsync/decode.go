package lightsync

import (
	"fmt"

	"rainbar/internal/colorspace"
	"rainbar/internal/crc"
	"rainbar/internal/raster"
)

// GridDecode is the geometry-level decode of one capture: every data bit,
// plus the per-row line counters that drive synchronization.
type GridDecode struct {
	// Bits holds one decoded bit per data cell, in dataCells order.
	Bits []byte
	// LineSeq holds each data row's decoded 3-bit counter, or -1 when the
	// parity check failed (row unattributable).
	LineSeq map[int]int
	// Sharpness is the capture's focus metric.
	Sharpness float64
}

// DecodeGrid locates the frame (shared RainBar fix) and classifies every
// line header and data cell as black or white.
func (c *Codec) DecodeGrid(img *raster.Image) (*GridDecode, error) {
	fix, err := c.fixer.FixImage(img)
	if err != nil {
		return nil, fmt.Errorf("lightsync: %w", err)
	}
	cl := colorspace.NewClassifier(fix.TV())
	bitAt := func(cell cellRC) byte {
		p := fix.CellCenter(cell.Row, cell.Col)
		if cl.ClassifyRGB(img.MeanFilterAt(int(p.X+0.5), int(p.Y+0.5))) == colorspace.Black {
			return 1
		}
		return 0
	}

	gd := &GridDecode{
		Bits:      make([]byte, len(c.dataCells)),
		LineSeq:   make(map[int]int, len(c.lineCells)),
		Sharpness: img.Sharpness(nil),
	}
	for i, cell := range c.dataCells {
		gd.Bits[i] = bitAt(cell)
	}
	for row, cells := range c.lineCells {
		var bits [lineHeaderBits]byte
		for i, cell := range cells {
			bits[i] = bitAt(cell)
		}
		ctr := bits[0]<<2 | bits[1]<<1 | bits[2]
		parity := (ctr>>2 ^ ctr>>1 ^ ctr) & 1
		if parity != bits[3] {
			gd.LineSeq[row] = -1
			continue
		}
		gd.LineSeq[row] = int(ctr)
	}
	return gd, nil
}

type cellRC = struct{ Row, Col int }

// AssemblePayload packs bits, RS-decodes, and verifies the in-payload
// checksum; returns the sequence number and payload.
func (c *Codec) AssemblePayload(bits []byte) (uint16, []byte, error) {
	if len(bits) != len(c.dataCells) {
		return 0, nil, fmt.Errorf("lightsync: %d bits, want %d", len(bits), len(c.dataCells))
	}
	stream := make([]byte, len(bits)/8+1)
	for i, b := range bits {
		if b == 1 {
			stream[i/8] |= 1 << uint(7-i%8)
		}
	}
	blob := make([]byte, 0, c.capacity+metaLen)
	off := 0
	for _, k := range c.msgSizes {
		n := k + c.cfg.RSParity
		data, err := c.rsc.Decode(stream[off:off+n], nil)
		if err != nil {
			return 0, nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
		blob = append(blob, data...)
		off += n
	}
	if len(blob) < metaLen {
		return 0, nil, fmt.Errorf("%w: truncated", ErrBadFrame)
	}
	seq := uint16(blob[0])<<8 | uint16(blob[1])
	sum := uint16(blob[2])<<8 | uint16(blob[3])
	if crc.Sum16(blob[metaLen:]) != sum {
		return 0, nil, fmt.Errorf("%w: payload checksum mismatch", ErrBadFrame)
	}
	return seq, blob[metaLen:], nil
}

// Receiver reassembles frames from captures using LightSync's per-line
// counters: every captured row carries its own 3-bit frame counter, so a
// mixed capture contributes each row to the right frame without tracking
// bars or a header row. The absolute sequence is maintained by counter
// continuity from the last completed frame.
type Receiver struct {
	codec   *Codec
	base    uint16 // absolute seq whose counter == base % seqMod
	baseSet bool
	partial map[uint16]*partialFrame
	done    map[uint16]*DecodedFrame
}

type partialFrame struct {
	bitVotes  [][2]float64 // per data cell: weight for 0 and 1
	rowFilled map[int]bool
}

// DecodedFrame is one reassembled LightSync frame.
type DecodedFrame struct {
	Seq     uint16
	Payload []byte
	Err     error
}

// NewReceiver creates a receiver.
func NewReceiver(c *Codec) *Receiver {
	return &Receiver{
		codec:   c,
		partial: make(map[uint16]*partialFrame),
		done:    make(map[uint16]*DecodedFrame),
	}
}

// Ingest processes one capture, distributing rows by line counter.
func (rx *Receiver) Ingest(img *raster.Image) error {
	gd, err := rx.codec.DecodeGrid(img)
	if err != nil {
		return err
	}
	// Resolve each row's 3-bit counter to an absolute sequence: the
	// candidate within [base, base+seqMod) whose counter matches. Before
	// any anchor exists, counters are taken at face value (first frames
	// of a stream).
	resolve := func(ctr int) uint16 {
		if !rx.baseSet {
			return uint16(ctr)
		}
		for off := uint16(0); off < seqMod; off++ {
			cand := rx.base + off
			if int(cand%seqMod) == ctr {
				return cand
			}
		}
		return rx.base // unreachable: all residues covered
	}

	for i, cell := range rx.codec.dataCells {
		ctr, ok := gd.LineSeq[cell.Row]
		if !ok || ctr < 0 {
			continue
		}
		seq := resolve(ctr)
		pf := rx.getPartial(seq)
		pf.bitVotes[i][gd.Bits[i]] += gd.Sharpness
		pf.rowFilled[cell.Row] = true
	}
	// Completion check for any partial with all rows seen.
	for seq := range rx.partial {
		rx.tryComplete(seq)
	}
	return nil
}

func (rx *Receiver) getPartial(seq uint16) *partialFrame {
	if pf, ok := rx.partial[seq]; ok {
		return pf
	}
	pf := &partialFrame{
		bitVotes:  make([][2]float64, len(rx.codec.dataCells)),
		rowFilled: make(map[int]bool),
	}
	rx.partial[seq] = pf
	return pf
}

func (pf *partialFrame) bits(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		if pf.bitVotes[i][1] > pf.bitVotes[i][0] {
			out[i] = 1
		}
	}
	return out
}

func (rx *Receiver) tryComplete(seq uint16) {
	pf, ok := rx.partial[seq]
	if !ok {
		return
	}
	if _, ok := rx.done[seq]; ok {
		return
	}
	if len(pf.rowFilled) < len(rx.codec.lineCells) {
		return
	}
	gotSeq, payload, err := rx.codec.AssemblePayload(pf.bits(len(rx.codec.dataCells)))
	if err != nil {
		return // keep voting
	}
	if gotSeq != seq && rx.baseSet {
		// Counter aliasing resolved wrong; re-key by the authoritative
		// in-payload sequence.
		seq = gotSeq
	}
	rx.done[seq] = &DecodedFrame{Seq: gotSeq, Payload: payload}
	delete(rx.partial, seq)
	if !rx.baseSet || gotSeq+1 > rx.base {
		rx.base = gotSeq + 1
		rx.baseSet = true
	}
}

// Flush force-decodes the remaining partials, recording failures.
func (rx *Receiver) Flush() {
	for seq, pf := range rx.partial {
		if _, ok := rx.done[seq]; ok {
			continue
		}
		gotSeq, payload, err := rx.codec.AssemblePayload(pf.bits(len(rx.codec.dataCells)))
		if err != nil {
			rx.done[seq] = &DecodedFrame{Seq: seq, Err: err}
		} else {
			rx.done[gotSeq] = &DecodedFrame{Seq: gotSeq, Payload: payload}
		}
		delete(rx.partial, seq)
	}
}

// Frame returns the completed frame for seq, if any.
func (rx *Receiver) Frame(seq uint16) (*DecodedFrame, bool) {
	f, ok := rx.done[seq]
	return f, ok
}
