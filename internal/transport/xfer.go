package transport

import (
	"fmt"
	"sort"

	"rainbar/internal/colorspace"
	"rainbar/internal/core"
	"rainbar/internal/obs"
)

// Xfer is one in-flight reliable transfer, advanced one display round at a
// time. Transfer is Begin + Step-until-done + Seal in a single call; a
// serve daemon instead owns the loop, interleaving thousands of transfers
// on a worker pool and snapshotting any of them at a round boundary via
// State. An Xfer is not safe for concurrent use.
type Xfer struct {
	s    *Session
	data []byte
	fc   FileCodec
	p    plan

	nChunks   int
	missing   []int
	collector *Collector
	stats     *Stats
	nextSeq   uint16
	rate      float64
	stall     int
	round     int
	comb      *combiner
	done      bool
	sealed    bool
	resumes   int
}

// Begin validates the session and payload and returns a transfer positioned
// before its first round. It performs exactly the setup Transfer used to:
// Transfer(data) is equivalent to Begin + Step until done + Seal.
func (s *Session) Begin(data []byte) (*Xfer, error) {
	return s.begin(data, false)
}

// begin is Begin for a reliable (lossy false) or loss-tolerant transfer;
// the two differ only in their plan and in combining, which a lossy
// transfer never does.
func (s *Session) begin(data []byte, lossy bool) (*Xfer, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("transport: empty payload")
	}
	if err := s.Link.Validate(); err != nil {
		return nil, err
	}
	fc := FileCodec{Codec: s.Codec}
	if fc.ChunkSize() <= 0 {
		return nil, fmt.Errorf("transport: frame capacity %d too small for chunk prefix", s.Codec.FrameCapacity())
	}
	nChunks := fc.NumChunks(len(data))
	p, err := s.plan(nChunks, lossy)
	if err != nil {
		return nil, err
	}
	missing := make([]int, nChunks)
	for i := range missing {
		missing[i] = i
	}
	x := &Xfer{
		s:         s,
		data:      data,
		fc:        fc,
		p:         p,
		nChunks:   nChunks,
		missing:   missing,
		collector: NewCollector(),
		stats:     &Stats{FramesNeeded: nChunks, App: Classify(data)},
		rate:      s.Link.DisplayRate,
	}
	if s.Combine && !lossy {
		x.comb = newCombiner()
	}
	s.obsInc(obs.MTransportTransfers, 1)
	return x, nil
}

// run steps the transfer until no further round will run.
func (x *Xfer) run() error {
	for {
		done, err := x.Step()
		if err != nil || done {
			return err
		}
	}
}

// exhausted reports whether another round may run: it mirrors the historic
// Transfer loop's entry condition (round bound, nothing missing, or the
// next round would blow the frame budget).
func (x *Xfer) exhausted() bool {
	return len(x.missing) == 0 ||
		x.round >= x.p.maxRounds ||
		x.stats.FramesSent+len(x.missing) > x.p.budget
}

// Step runs one display round: encode the missing chunks, film them
// through the link at the current (possibly fallen-back) rate, fold the
// receiver's results into the collector, and apply the stall/rate-fallback
// policy. It returns done=true once no further round will run — either the
// transfer completed or its round/budget bounds are exhausted; call Seal
// for the verdict. A non-nil error is a link-level failure (encode,
// display, film), after which the transfer cannot continue.
func (x *Xfer) Step() (done bool, err error) {
	if x.sealed {
		return true, fmt.Errorf("transport: transfer already sealed")
	}
	if x.done {
		return true, nil
	}
	if x.exhausted() {
		x.done = true
		return true, nil
	}

	x.round++
	x.stats.Rounds = x.round
	x.s.obsInc(obs.MTransportRounds, 1)
	faultBase, dropBase := x.s.faultBaseline()
	endRound := obs.OrNop(x.s.Recorder).Span(obs.MTransportRoundSeconds)
	sent, airTime, err := x.s.sendRound(x.fc, x.data, x.missing, &x.nextSeq, x.collector, x.comb, x.rate, x.stats)
	endRound()
	if err != nil {
		x.done = true
		return true, err
	}
	// Fault exposure is folded in per round (the chain counters only grow,
	// so the per-transfer totals equal the old end-of-transfer delta). A
	// serve daemon may swap the link between rounds; per-round deltas keep
	// the accounting correct across such swaps.
	x.s.faultDelta(x.stats, faultBase, dropBase)
	x.s.obsInc(obs.MTransportFramesSent, int64(sent))
	if x.round > 1 {
		x.s.obsInc(obs.MTransportRetransmits, int64(sent))
	}
	x.stats.FramesSent += sent
	x.stats.AirTime += airTime
	if x.stats.RateRounds == nil {
		x.stats.RateRounds = make(map[float64]int)
	}
	x.stats.RateRounds[x.rate]++

	// Receiver feedback: the still-missing chunk indices.
	before := len(x.missing)
	if m := x.collector.Missing(); m != nil {
		x.missing = m
	}
	if x.collector.Complete() {
		x.missing = nil
	}

	// Graceful degradation: consecutive rounds that recover nothing mean
	// the link cannot sustain this display rate; back the rate off (the
	// paper's rate-adaptation knob) instead of burning the remaining
	// rounds on identical failures.
	if len(x.missing) > 0 && len(x.missing) >= before {
		x.stall++
	} else {
		x.stall = 0
	}
	if x.stall >= x.p.stallN && x.rate > x.p.minRate {
		x.rate = max(x.p.minRate, x.rate*rateBackoff)
		x.stats.RateFallbacks++
		x.s.obsInc(obs.MTransportRateFallbacks, 1)
		x.stall = 0
	}
	if x.exhausted() {
		x.done = true
	}
	return x.done, nil
}

// Seal finishes the transfer: it freezes the final rate and delivery
// counts into Stats and reassembles the payload, exactly as the historic
// Transfer epilogue did. After Seal the transfer cannot be stepped.
func (x *Xfer) Seal() ([]byte, *Stats, error) {
	x.freeze()
	if len(x.missing) > 0 {
		return nil, x.stats, fmt.Errorf("transport: %d/%d chunks undelivered after %d rounds (%d/%d frame budget)",
			len(x.missing), x.nChunks, x.stats.Rounds, x.stats.FramesSent, x.p.budget)
	}
	result, gotApp, err := x.collector.File()
	if err != nil {
		return nil, x.stats, err
	}
	if gotApp != x.stats.App {
		return nil, x.stats, fmt.Errorf("transport: app type corrupted: sent %v, received %v", x.stats.App, gotApp)
	}
	if x.stats.AirTime > 0 {
		x.stats.Goodput = float64(len(result)) / x.stats.AirTime.Seconds()
	}
	return result, x.stats, nil
}

// freeze seals the transfer and records its final rate and delivery count.
func (x *Xfer) freeze() {
	x.sealed = true
	x.stats.FinalDisplayRate = x.rate
	x.stats.ChunksDelivered = x.nChunks - len(x.missing)
}

// Round returns the number of completed display rounds.
func (x *Xfer) Round() int { return x.round }

// MissingCount returns how many chunks the receiver still needs.
func (x *Xfer) MissingCount() int { return len(x.missing) }

// Done reports whether no further round will run.
func (x *Xfer) Done() bool { return x.done }

// Resumes returns how many State/Resume generations precede this
// transfer: 0 for a fresh Begin, incremented by every Resume. Resume
// metadata only — it never influences a round's outcome, it just lets a
// daemon report how often a session has been migrated or crash-recovered.
func (x *Xfer) Resumes() int { return x.resumes }

// Stats returns the live statistics. The caller must not mutate them; they
// keep changing until Seal.
func (x *Xfer) Stats() *Stats { return x.stats }

// XferState is the complete discrete state of a transfer at a round
// boundary: everything Resume needs to continue it bit-identically (given
// a link whose per-round randomness is a pure function of the round
// number, as the serve daemon arranges). All nested structures are deep
// copies — snapshotting never aliases live transfer state.
type XferState struct {
	Round   int
	NextSeq uint16
	Rate    float64
	Stall   int
	Done    bool
	// Missing lists the chunk indices still owed, ascending.
	Missing   []int
	Collector CollectorState
	// Combiner carries the HARQ soft-table cache; nil when the session
	// does not combine or nothing is cached.
	Combiner *CombinerState
	Stats    Stats
	// Resumes counts the State/Resume generations before this snapshot
	// (resume metadata; Resume stores it incremented). Deliberately kept
	// out of Stats so resumed and uninterrupted transfers stay
	// bit-identical where it counts — in delivered bytes and accounting.
	Resumes int
}

// State snapshots the transfer at the current round boundary.
func (x *Xfer) State() *XferState {
	st := &XferState{
		Round:     x.round,
		NextSeq:   x.nextSeq,
		Rate:      x.rate,
		Stall:     x.stall,
		Done:      x.done,
		Missing:   append([]int(nil), x.missing...),
		Collector: x.collector.State(),
		Combiner:  x.comb.state(),
		Stats:     *x.stats.Clone(),
		Resumes:   x.resumes,
	}
	return st
}

// Resume reconstructs a mid-transfer Xfer from a snapshot taken by State.
// The session must be configured identically to the one that produced the
// snapshot (same codec format, degradation knobs and Combine setting); the
// payload is the same file the original transfer was sending. State that
// cannot belong to such a transfer is rejected.
func (s *Session) Resume(data []byte, st *XferState) (*Xfer, error) {
	if st == nil {
		return nil, fmt.Errorf("transport: nil transfer state")
	}
	x, err := s.Begin(data)
	if err != nil {
		return nil, err
	}
	if st.Round < 0 || st.Round > x.p.maxRounds {
		return nil, fmt.Errorf("transport: resumed round %d out of [0, %d]", st.Round, x.p.maxRounds)
	}
	if st.NextSeq&0x7FFF != st.NextSeq {
		return nil, fmt.Errorf("transport: resumed sequence %d exceeds 15 bits", st.NextSeq)
	}
	if st.Rate <= 0 || st.Rate > s.Link.DisplayRate {
		return nil, fmt.Errorf("transport: resumed rate %.3f out of (0, %.3f]", st.Rate, s.Link.DisplayRate)
	}
	prev := -1
	for _, ci := range st.Missing {
		if ci <= prev || ci >= x.nChunks {
			return nil, fmt.Errorf("transport: resumed missing set not ascending in [0, %d)", x.nChunks)
		}
		prev = ci
	}
	collector, err := NewCollectorFromState(st.Collector)
	if err != nil {
		return nil, err
	}
	comb, err := newCombinerFromState(st.Combiner, s.Combine, cellsPerFrame(s.Codec))
	if err != nil {
		return nil, err
	}
	x.round = st.Round
	x.nextSeq = st.NextSeq
	x.rate = st.Rate
	x.stall = st.Stall
	x.done = st.Done
	x.missing = append([]int(nil), st.Missing...)
	x.collector = collector
	x.comb = comb
	x.stats = st.Stats.Clone()
	x.resumes = st.Resumes + 1
	// Begin already counted a transfer start; a resume continues an
	// existing one, so take the increment back out of the books.
	s.obsInc(obs.MTransportTransfers, -1)
	return x, nil
}

// cellsPerFrame is the soft-table length a combiner entry must have.
func cellsPerFrame(c *core.Codec) int {
	return len(c.Geometry().DataCells())
}

// Clone returns a deep copy of the stats (maps included), so snapshots
// never alias the live transfer's accounting.
func (s *Stats) Clone() *Stats {
	out := *s
	out.RateRounds = cloneMap(s.RateRounds)
	out.DecodeFailures = cloneMap(s.DecodeFailures)
	out.FaultCounts = cloneMap(s.FaultCounts)
	out.LadderSuccessesByHypothesis = cloneMap(s.LadderSuccessesByHypothesis)
	return &out
}

func cloneMap[K comparable, V any](m map[K]V) map[K]V {
	if m == nil {
		return nil
	}
	out := make(map[K]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// CollectorState is the serializable state of a Collector.
type CollectorState struct {
	// Chunks maps chunk index to its body bytes (deep copies).
	Chunks map[int][]byte
	// Total is the chunk count once known, -1 before the manifest arrived.
	Total    int
	FileLen  int
	App      AppType
	HaveMeta bool
}

// State deep-copies the collector's reassembly state.
func (c *Collector) State() CollectorState {
	chunks := make(map[int][]byte, len(c.chunks))
	for ci, body := range c.chunks {
		b := make([]byte, len(body))
		copy(b, body)
		chunks[ci] = b
	}
	return CollectorState{Chunks: chunks, Total: c.total, FileLen: c.fileLen, App: c.app, HaveMeta: c.haveMeta}
}

// NewCollectorFromState rebuilds a collector from a snapshot, validating
// the internal consistency a genuine snapshot always has.
func NewCollectorFromState(st CollectorState) (*Collector, error) {
	c := NewCollector()
	if !st.HaveMeta && (st.Total != -1 || st.FileLen != 0) {
		return nil, fmt.Errorf("transport: collector state has totals but no manifest")
	}
	if st.HaveMeta && (st.Total <= 0 || st.FileLen < 0) {
		return nil, fmt.Errorf("transport: collector state claims %d chunks, %d bytes", st.Total, st.FileLen)
	}
	for ci, body := range st.Chunks {
		if ci < 0 || (st.HaveMeta && ci >= st.Total) {
			return nil, fmt.Errorf("transport: collector state chunk %d out of range", ci)
		}
		b := make([]byte, len(body))
		copy(b, body)
		c.chunks[ci] = b
	}
	c.total = st.Total
	c.fileLen = st.FileLen
	c.app = st.App
	c.haveMeta = st.HaveMeta
	if st.HaveMeta {
		body, ok := c.chunks[0]
		if !ok {
			return nil, fmt.Errorf("transport: collector state has metadata but no manifest chunk")
		}
		length, app, err := parseManifest(body)
		if err != nil {
			return nil, fmt.Errorf("transport: collector state manifest: %w", err)
		}
		if length != st.FileLen || app != st.App {
			return nil, fmt.Errorf("transport: collector state disagrees with its manifest")
		}
	}
	return c, nil
}

// CombinerState is the serializable HARQ soft-table cache: the voted
// per-cell symbols and confidences of frames that failed to decode, keyed
// by chunk index and awaiting fusion with a retransmission round.
type CombinerState struct {
	Chunks []CombinerChunk
}

// CombinerChunk is one cached soft table.
type CombinerChunk struct {
	Index int
	Cells []colorspace.Color
	Conf  []float64
}

// state deep-copies the cache in ascending chunk order (nil when the
// combiner is off or empty).
func (cb *combiner) state() *CombinerState {
	if cb == nil || len(cb.tables) == 0 {
		return nil
	}
	indices := make([]int, 0, len(cb.tables))
	for ci := range cb.tables {
		indices = append(indices, ci)
	}
	// Ascending chunk order keeps snapshots of equal caches byte-identical.
	sort.Ints(indices)
	st := &CombinerState{Chunks: make([]CombinerChunk, 0, len(indices))}
	for _, ci := range indices {
		tbl := cb.tables[ci]
		st.Chunks = append(st.Chunks, CombinerChunk{
			Index: ci,
			Cells: append([]colorspace.Color(nil), tbl.cells...),
			Conf:  append([]float64(nil), tbl.conf...),
		})
	}
	return st
}

// newCombinerFromState rebuilds the cache. combine is the session's
// Combine flag; nCells the codec's data-cell count per frame.
func newCombinerFromState(st *CombinerState, combine bool, nCells int) (*combiner, error) {
	if !combine {
		if st != nil && len(st.Chunks) > 0 {
			return nil, fmt.Errorf("transport: snapshot carries soft tables but session does not combine")
		}
		return nil, nil
	}
	cb := newCombiner()
	for _, ch := range st.chunksOrNil() {
		if ch.Index < 0 {
			return nil, fmt.Errorf("transport: soft table for negative chunk %d", ch.Index)
		}
		if len(ch.Cells) != nCells || len(ch.Conf) != nCells {
			return nil, fmt.Errorf("transport: soft table for chunk %d has %d cells, %d confidences; frame has %d",
				ch.Index, len(ch.Cells), len(ch.Conf), nCells)
		}
		if _, dup := cb.tables[ch.Index]; dup {
			return nil, fmt.Errorf("transport: duplicate soft table for chunk %d", ch.Index)
		}
		cb.tables[ch.Index] = softTable{
			cells: append([]colorspace.Color(nil), ch.Cells...),
			conf:  append([]float64(nil), ch.Conf...),
		}
	}
	return cb, nil
}

// chunksOrNil tolerates a nil state (fresh combiner).
func (st *CombinerState) chunksOrNil() []CombinerChunk {
	if st == nil {
		return nil
	}
	return st.Chunks
}
