package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"rainbar/internal/colorspace"
	"rainbar/internal/core/header"
	"rainbar/internal/core/layout"
	"rainbar/internal/obs"
	"rainbar/internal/raster"
)

// Receiver reassembles logical frames from a stream of captures, solving
// the §III-D synchronization problem: when the display rate exceeds half
// the capture rate, each capture holds the top of frame i and the bottom
// of frame i+1; the per-row tracking bars say which rows belong to whom.
// It also performs blur assessment: when several captures contribute the
// same row of the same frame (f_d <= f_c/2), the sharpest capture wins.
//
// A Receiver is not safe for concurrent use.
type Receiver struct {
	codec *Codec
	// DisableSync ignores tracking bars and treats every capture as one
	// whole frame — the E16 ablation (COBRA-like behavior).
	DisableSync bool

	partial map[uint16]*partialFrame
	done    map[uint16]*DecodedFrame

	// lastTop is the most recent top-frame sequence read from a valid
	// header; it anchors sequence inference for captures whose header row
	// was destroyed (e.g. blended by an LCD transition).
	lastTop    uint16
	lastTopSet bool

	// Decode-recovery ladder activity folded across this receiver's
	// captures and frames (populated only when the codec's RecoveryBudget
	// is on); see RecoveryStats.
	ladderAttempts int
	ladderWins     map[string]int

	// Steady-state scratch: row-attribution planes, the voted-cell buffer
	// and the payload-assembly intermediates, all reused across captures.
	// pfFree/dfFree recycle frame accumulators and decoded frames returned
	// to the pool by Reset.
	owners    []int
	weight    []float64
	voteCells []colorspace.Color
	asm       asmScratch
	pfFree    []*partialFrame
	dfFree    []*DecodedFrame
}

// partialFrame accumulates rows of one logical frame across captures.
type partialFrame struct {
	// hdrVotes tallies the header values observed for this frame across
	// captures. Majority wins: a header fabricated from a blended strip
	// (single-symbol repair can produce a CRC-valid but wrong header) is
	// outvoted by the genuine copies from clean captures.
	hdrVotes map[header.Header]int
	// cellVotes accumulates sharpness-weighted votes per data cell and
	// color. Voting across captures is what makes reassembly robust: a
	// single capture whose rows passed the bar checks but were degraded
	// (LCD-blend band, noise burst) is outvoted by the clean captures of
	// the same rows instead of overwriting them.
	cellVotes [][colorspace.NumDataColors]float64
	// confVotes accumulates confidence-weighted votes in parallel with
	// cellVotes, so the winner's mean classification confidence can be
	// recovered (confVotes/cellVotes). Nil when the recovery ladder is
	// off — the vote outcome itself never depends on it.
	confVotes [][colorspace.NumDataColors]float64
	rowFilled []bool
}

// vote records one observation of cell i with classification confidence
// conf (ignored when soft voting is off).
func (pf *partialFrame) vote(i int, c colorspace.Color, conf, weight float64) {
	if c.IsData() {
		pf.cellVotes[i][c] += weight
		if pf.confVotes != nil {
			pf.confVotes[i][c] += conf * weight
		}
	}
}

// cellsByVoteInto materializes the majority color per cell (White where
// no votes), writing into dst when its capacity suffices.
func (pf *partialFrame) cellsByVoteInto(dst []colorspace.Color) []colorspace.Color {
	out := grow(dst, len(pf.cellVotes))
	for i := range pf.cellVotes {
		best := colorspace.White
		bestW := 0.0
		for c := 0; c < colorspace.NumDataColors; c++ {
			if w := pf.cellVotes[i][c]; w > bestW {
				bestW = w
				best = colorspace.Color(c)
			}
		}
		out[i] = best
	}
	return out
}

// cellsByVoteSoft is cellsByVoteInto plus a per-cell confidence: the
// winner's mean classification confidence scaled by its vote share. The
// winning color is decided exactly as in cellsByVoteInto. The vote-share
// factor is what catches confidently-wrong captures (e.g. splice replays,
// whose cells classify cleanly): a cell contested between captures scores
// low even when every individual classification was certain, so the
// ladder erases contested cells first. Cells with no votes score 0.
func (pf *partialFrame) cellsByVoteSoft() ([]colorspace.Color, []float64) {
	out := make([]colorspace.Color, len(pf.cellVotes))
	conf := make([]float64, len(pf.cellVotes))
	for i := range pf.cellVotes {
		best := colorspace.White
		bestW, total := 0.0, 0.0
		for c := 0; c < colorspace.NumDataColors; c++ {
			w := pf.cellVotes[i][c]
			total += w
			if w > bestW {
				bestW = w
				best = colorspace.Color(c)
			}
		}
		out[i] = best
		if bestW > 0 && pf.confVotes != nil {
			conf[i] = pf.confVotes[i][best] / bestW * (bestW / total)
		}
	}
	return out, conf
}

func (pf *partialFrame) addHeaderVote(h header.Header) {
	pf.hdrVotes[h]++
}

// header returns the majority header, or false when none was observed.
// Ties break toward the lower checksum for determinism.
func (pf *partialFrame) header() (header.Header, bool) {
	var best header.Header
	bestN := 0
	for h, n := range pf.hdrVotes {
		if n > bestN || (n == bestN && h.FrameChecksum < best.FrameChecksum) {
			best = h
			bestN = n
		}
	}
	return best, bestN > 0
}

// DecodedFrame is one reassembled frame.
type DecodedFrame struct {
	Header  header.Header
	Payload []byte // nil if error correction failed
	Err     error  // non-nil when Payload is nil

	// Cells and Conf hold the frame's voted per-cell symbols and mean
	// confidences when decoding failed and the recovery ladder is on —
	// the soft table a transport fuses with a retransmission's captures
	// (cross-round combining). Nil on success or when recovery is off.
	Cells []colorspace.Color
	Conf  []float64
}

// NewReceiver creates a receiver for the codec's format.
func NewReceiver(c *Codec) *Receiver {
	return &Receiver{
		codec:      c,
		partial:    make(map[uint16]*partialFrame),
		done:       make(map[uint16]*DecodedFrame),
		ladderWins: make(map[string]int),
	}
}

// noteTrace folds one recovery trace into the receiver's ladder stats.
func (rx *Receiver) noteTrace(t *RecoveryTrace) {
	if t == nil {
		return
	}
	rx.ladderAttempts += len(t.Attempts)
	if t.Winner != "" {
		rx.ladderWins[t.Winner]++
	}
}

// RecoveryStats reports the decode-recovery ladder's activity across
// everything this receiver ingested: total hypotheses attempted and
// successes per hypothesis ID. The map is a copy. All zero when the
// codec's RecoveryBudget is 0.
func (rx *Receiver) RecoveryStats() (attempts int, successesByHypothesis map[string]int) {
	out := make(map[string]int, len(rx.ladderWins))
	for k, v := range rx.ladderWins {
		out[k] = v
	}
	return rx.ladderAttempts, out
}

// assemble runs payload assembly for a partial frame, through the
// recovery ladder when it is enabled.
func (rx *Receiver) assemble(pf *partialFrame, hdr header.Header) ([]byte, []colorspace.Color, []float64, error) {
	if rx.codec.cfg.RecoveryBudget > 0 {
		cells, conf := pf.cellsByVoteSoft()
		payload, trace, err := rx.codec.AssemblePayloadSoft(cells, conf, hdr)
		rx.noteTrace(trace)
		return payload, cells, conf, err
	}
	// Recovery-off hot path: voted cells and every assembly intermediate
	// come from receiver-owned scratch. The returned payload aliases that
	// scratch — finish copies it into frame-owned storage.
	rx.voteCells = pf.cellsByVoteInto(rx.voteCells)
	payload, err := rx.codec.assemblePayloadScratch(rx.voteCells, hdr, &rx.asm)
	return payload, nil, nil, err
}

// Ingest processes one captured image. Captures whose corner trackers
// cannot be found are skipped with the error returned; the stream
// continues (the sender will retransmit what never completes). Captures
// with an unreadable header are still mined for rows when the sequence
// can be inferred from the tracking bars and the last known sequence.
func (rx *Receiver) Ingest(img *raster.Image) error {
	err := rx.ingest(img)
	rx.codec.recordFailure(err)
	return err
}

// IngestBatch ingests a batch of captures. The per-capture grid decodes —
// pure functions of the image and codec — run in parallel; the stateful
// merge into the receiver then runs strictly sequentially in input order,
// so the receiver's final state (votes, inferred sequences, completed
// frames, ladder stats) is bit-identical to calling Ingest on each capture
// in order. The returned slice holds Ingest's error per capture. With a
// single worker the batch degrades to the sequential loop. IngestBatch
// itself is not safe for concurrent use (same contract as Ingest).
func (rx *Receiver) IngestBatch(imgs []*raster.Image) []error {
	errs := make([]error, len(imgs))
	workers := min(runtime.GOMAXPROCS(0), len(imgs))
	if workers <= 1 {
		for i, img := range imgs {
			errs[i] = rx.Ingest(img)
		}
		return errs
	}
	type slot struct {
		sc  *decodeScratch
		gd  *GridDecode
		err error
	}
	window := 2 * workers
	if window > len(imgs) {
		window = len(imgs)
	}
	slots := make([]slot, window)
	for i := range slots {
		slots[i].sc = getScratch()
	}
	var wg sync.WaitGroup
	for base := 0; base < len(imgs); base += window {
		chunk := imgs[base:min(base+window, len(imgs))]
		for i := range chunk {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				slots[i].gd, slots[i].err = rx.codec.decodeGridLooseScratch(chunk[i], slots[i].sc)
			}(i)
		}
		wg.Wait()
		for i := range chunk {
			err := rx.ingestDecoded(slots[i].gd, slots[i].err)
			rx.codec.recordFailure(err)
			errs[base+i] = err
		}
	}
	for i := range slots {
		putScratch(slots[i].sc)
	}
	return errs
}

// Reset returns the receiver to its initial empty state while keeping
// every internal buffer, so one long-lived receiver can process stream
// after stream without allocating. Resetting recycles all partial and
// completed frames: any DecodedFrame previously returned by Frames, Frame
// or Flush (payload included) is invalidated and must not be used
// afterwards. Callers that retain payloads across streams should keep
// using a fresh Receiver per stream instead.
func (rx *Receiver) Reset() {
	for seq, pf := range rx.partial {
		rx.retire(seq, pf)
	}
	//lint:ordered dfFree is an unordered freelist: recycled DecodedFrames are fully overwritten before reuse, so pop order never reaches any output
	for seq, df := range rx.done {
		rx.dfFree = append(rx.dfFree, df)
		delete(rx.done, seq)
	}
	rx.lastTop, rx.lastTopSet = 0, false
	rx.ladderAttempts = 0
	clear(rx.ladderWins)
}

func (rx *Receiver) ingest(img *raster.Image) error {
	sc := getScratch()
	gd, err := rx.codec.decodeGridLooseScratch(img, sc)
	err = rx.ingestDecoded(gd, err)
	putScratch(sc)
	return err
}

// ingestDecoded folds one capture's grid decode (or its failure) into the
// receiver state. gd may be scratch-owned; it is fully consumed before
// return. Splitting decode from merge is what lets IngestBatch run the
// pure decodes in parallel while keeping this merge — the only part that
// touches receiver state — strictly sequential.
func (rx *Receiver) ingestDecoded(gd *GridDecode, err error) error {
	if err != nil {
		return err
	}
	rx.noteTrace(gd.Recovery)
	if rx.DisableSync {
		if !gd.HeaderOK {
			return fmt.Errorf("core: header unreadable: %w", header.ErrCorrupt)
		}
		rx.ingestWholeFrame(gd)
		return nil
	}

	// A genuine header's frame owns the top of the capture, so the first
	// readable tracking bar must be consistent with it. A header decoded
	// from an LCD-blend region (possibly fabricated by the CRC-trial
	// repair) fails this check and is demoted to the inference path.
	headerTrusted := gd.HeaderOK
	if headerTrusted {
		for r := range gd.BarColors {
			if !gd.BarOK[r] {
				continue
			}
			headerTrusted = gd.RowOwnerFor(r, gd.Header.Seq) >= 0
			break
		}
	}
	// Sequence plausibility: a stream advances monotonically, so a header
	// claiming a sequence far from the last known one is a fabrication
	// whose low bits happened to match the bars (the bar check alone
	// cannot catch those). Such captures fall back to bar inference.
	if headerTrusted && rx.lastTopSet {
		forward := (gd.Header.Seq - rx.lastTop) & header.MaxSeq
		backward := (rx.lastTop - gd.Header.Seq) & header.MaxSeq
		if forward > 16 && backward > 2 {
			headerTrusted = false
		}
	}

	seqTop := gd.Header.Seq
	if !headerTrusted {
		inferred, ok := rx.inferSeq(gd)
		if !ok {
			return fmt.Errorf("core: header unreadable and sequence not inferable: %w", header.ErrCorrupt)
		}
		seqTop = inferred
	}

	// Only captures with a majority of attributable rows are worth
	// ingesting; the unowned minority (blend rows, bar misreads) is simply
	// skipped and supplied by other captures.
	if rx.badRows(gd, seqTop) > rx.codec.cfg.Geometry.Rows()/2 {
		return ErrInconsistentBars
	}

	g := rx.codec.cfg.Geometry
	seqBot := (seqTop + 1) & header.MaxSeq

	// LCD transitions blend the two frames in a band centered on the
	// ownership boundary. Bars inside the band often still classify
	// consistently toward one side while the data cells are mixtures, so
	// every row within blendGuard of an owner transition (or adjacent to
	// an unreadable-bar row) is rejected; other captures, whose boundary
	// sits elsewhere, supply those rows cleanly.
	rx.owners = grow(rx.owners, g.Rows())
	owners := rx.owners
	for r := range owners {
		owners[r] = gd.RowOwnerFor(r, seqTop)
	}
	blendGuard := g.Rows()/6 + 1
	rx.weight = grow(rx.weight, g.Rows())
	weight := rx.weight
	for r := range weight {
		weight[r] = 1
	}
	prevOwner := -2
	for r, o := range owners {
		if o < 0 {
			markSuspect(weight, r, 1)
			continue
		}
		if prevOwner >= 0 && o != prevOwner {
			markSuspect(weight, r, blendGuard)
		}
		prevOwner = o
	}

	// Distribute each data cell to its owning logical frame by row,
	// accumulating sharpness- and suspicion-weighted votes. A frame already
	// decoded takes no more votes: nothing reads them, and an accumulator
	// opened for it would stay open until Reset, so a long stream would
	// hold one per frame.
	seqs := [2]uint16{seqTop, seqBot}
	var decoded [2]bool
	for o, seq := range seqs {
		_, decoded[o] = rx.done[seq]
	}
	var pfs [2]*partialFrame
	for i, cell := range g.DataCells() {
		owner := owners[cell.Row]
		if owner < 0 || decoded[owner] {
			continue
		}
		if pfs[owner] == nil {
			pfs[owner] = rx.getPartial(seqs[owner])
		}
		pf := pfs[owner]
		cf := 0.0
		if gd.Conf != nil {
			cf = gd.Conf[i]
		}
		pf.vote(i, gd.Cells[i], cf, gd.Sharpness*weight[cell.Row])
		if weight[cell.Row] == 1 {
			pf.rowFilled[cell.Row] = true
		}
	}

	// The header row is owned by the top frame.
	if headerTrusted {
		if !decoded[0] {
			rx.getPartial(seqTop).addHeaderVote(gd.Header)
		}
		rx.lastTop = seqTop
		rx.lastTopSet = true
	}

	rx.tryComplete(seqTop)
	rx.tryComplete(seqBot)
	return nil
}

// suspectWeight is the vote discount for blend-adjacent rows: low enough
// that a single clean capture of the same row always outvotes them, high
// enough that they still beat nothing when they are a row's only source.
const suspectWeight = 0.05

// markSuspect discounts the vote weight of rows r-span..r+span.
func markSuspect(weight []float64, r, span int) {
	for d := -span; d <= span; d++ {
		if r+d >= 0 && r+d < len(weight) {
			weight[r+d] = suspectWeight
		}
	}
}

// badRows counts rows with tracking bars inconsistent with the given
// top-frame sequence.
func (rx *Receiver) badRows(gd *GridDecode, seqTop uint16) int {
	bad := 0
	for r := range gd.BarColors {
		if gd.RowOwnerFor(r, seqTop) < 0 {
			bad++
		}
	}
	return bad
}

// inferSeq recovers the top-frame sequence of a header-less capture: the
// tracking-bar color of its top rows pins the sequence modulo 4, and the
// last header-bearing capture anchors which multiple of 4 is in flight.
// It fails when no header has been seen yet or the bars are too noisy.
func (rx *Receiver) inferSeq(gd *GridDecode) (uint16, bool) {
	if !rx.lastTopSet {
		return 0, false
	}
	// Top-most attributable bar color.
	topColor := colorspace.Black
	for r := range gd.BarColors {
		if gd.BarOK[r] {
			topColor = gd.BarColors[r]
			break
		}
	}
	if !topColor.IsData() {
		return 0, false
	}
	// The display never goes backwards: the capture's top frame is the
	// last known top or up to 3 frames later (one full bar cycle).
	for off := uint16(0); off < 4; off++ {
		cand := (rx.lastTop + off) & header.MaxSeq
		if layout.TrackingBarColor(cand) != topColor {
			continue
		}
		if rx.badRows(gd, cand) <= len(gd.BarColors)/4 {
			return cand, true
		}
	}
	return 0, false
}

// ingestWholeFrame is the no-sync ablation path: the entire capture is
// attributed to the header's frame.
func (rx *Receiver) ingestWholeFrame(gd *GridDecode) {
	seq := gd.Header.Seq
	if _, ok := rx.done[seq]; ok {
		return
	}
	pf := rx.getPartial(seq)
	pf.hdrVotes[gd.Header]++
	for i := range gd.Cells {
		cf := 0.0
		if gd.Conf != nil {
			cf = gd.Conf[i]
		}
		pf.vote(i, gd.Cells[i], cf, gd.Sharpness)
	}
	for r := range pf.rowFilled {
		pf.rowFilled[r] = true
	}
	// Without sync there is no notion of "complete": decode immediately,
	// and let later captures keep voting if this attempt fails.
	hdr, _ := pf.header()
	payload, _, _, err := rx.assemble(pf, hdr)
	if err == nil {
		rx.codec.rec.Inc(obs.MCoreFramesDecoded, 1)
		rx.finish(seq, hdr, payload, nil, nil, nil)
		rx.retire(seq, pf)
	}
}

func (rx *Receiver) getPartial(seq uint16) *partialFrame {
	if pf, ok := rx.partial[seq]; ok {
		return pf
	}
	g := rx.codec.cfg.Geometry
	var pf *partialFrame
	if n := len(rx.pfFree); n > 0 {
		pf = rx.pfFree[n-1]
		rx.pfFree = rx.pfFree[:n-1]
		clear(pf.hdrVotes)
		pf.cellVotes = grow(pf.cellVotes, len(g.DataCells()))
		clear(pf.cellVotes)
		pf.rowFilled = grow(pf.rowFilled, g.Rows())
		clear(pf.rowFilled)
		if rx.codec.cfg.RecoveryBudget > 0 {
			pf.confVotes = grow(pf.confVotes, len(g.DataCells()))
			clear(pf.confVotes)
		} else {
			pf.confVotes = nil
		}
	} else {
		pf = &partialFrame{
			hdrVotes:  make(map[header.Header]int),
			cellVotes: make([][colorspace.NumDataColors]float64, len(g.DataCells())),
			rowFilled: make([]bool, g.Rows()),
		}
		if rx.codec.cfg.RecoveryBudget > 0 {
			pf.confVotes = make([][colorspace.NumDataColors]float64, len(g.DataCells()))
		}
	}
	rx.partial[seq] = pf
	return pf
}

// finish records seq as decoded, drawing the DecodedFrame from the
// freelist. payload may alias assembly scratch: it is copied into
// frame-owned storage. cells and conf are stored only alongside an error
// (the cross-round soft table; both are frame-owned already).
func (rx *Receiver) finish(seq uint16, hdr header.Header, payload []byte, cells []colorspace.Color, conf []float64, err error) {
	var df *DecodedFrame
	if n := len(rx.dfFree); n > 0 {
		df = rx.dfFree[n-1]
		rx.dfFree = rx.dfFree[:n-1]
	} else {
		df = &DecodedFrame{}
	}
	buf := df.Payload
	*df = DecodedFrame{Header: hdr, Err: err}
	if payload != nil {
		df.Payload = append(buf[:0], payload...)
	}
	if err != nil {
		df.Cells, df.Conf = cells, conf
	}
	rx.done[seq] = df
}

// retire recycles a completed partial frame's accumulators.
func (rx *Receiver) retire(seq uint16, pf *partialFrame) {
	delete(rx.partial, seq)
	rx.pfFree = append(rx.pfFree, pf)
}

// tryComplete decodes a partial frame once every data row has been seen
// and its header is known. A failed attempt keeps the partial frame open:
// further captures keep voting and may heal it (only Flush records
// failures, at stream end).
func (rx *Receiver) tryComplete(seq uint16) {
	pf, ok := rx.partial[seq]
	if !ok {
		return
	}
	hdr, hdrKnown := pf.header()
	if !hdrKnown {
		return
	}
	if _, ok := rx.done[seq]; ok {
		return
	}
	for _, cell := range rx.codec.cfg.Geometry.DataCells() {
		if !pf.rowFilled[cell.Row] {
			return
		}
	}
	payload, _, _, err := rx.assemble(pf, hdr)
	if err != nil {
		return
	}
	rx.codec.rec.Inc(obs.MCoreFramesDecoded, 1)
	rx.finish(seq, hdr, payload, nil, nil, nil)
	rx.retire(seq, pf)
}

// Flush force-decodes every partial frame that has a header, even with
// missing rows (missing cells decode as white/00 and are left to RS).
// Call after the capture stream ends.
func (rx *Receiver) Flush() {
	for seq, pf := range rx.partial {
		hdr, hdrKnown := pf.header()
		if !hdrKnown {
			continue
		}
		if _, ok := rx.done[seq]; ok {
			continue
		}
		payload, cells, conf, err := rx.assemble(pf, hdr)
		if err == nil {
			rx.codec.rec.Inc(obs.MCoreFramesDecoded, 1)
		} else {
			rx.codec.recordFailure(err)
		}
		// On failure the soft table (cells, conf) is kept: the transport can
		// fuse it with the retransmission round's captures (cross-round
		// combining).
		rx.finish(seq, hdr, payload, cells, conf, err)
		rx.retire(seq, pf)
	}
}

// Frames returns every completed frame in sequence order.
func (rx *Receiver) Frames() []*DecodedFrame {
	seqs := make([]int, 0, len(rx.done))
	for s := range rx.done {
		seqs = append(seqs, int(s))
	}
	sort.Ints(seqs)
	out := make([]*DecodedFrame, 0, len(seqs))
	for _, s := range seqs {
		out = append(out, rx.done[uint16(s)])
	}
	return out
}

// Frame returns the completed frame with the given sequence number, if any.
func (rx *Receiver) Frame(seq uint16) (*DecodedFrame, bool) {
	f, ok := rx.done[seq]
	return f, ok
}
