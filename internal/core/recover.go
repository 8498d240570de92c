package core

import (
	"fmt"
	"sort"

	"rainbar/internal/colorspace"
	"rainbar/internal/core/header"
	"rainbar/internal/obs"
)

// DefaultRecoveryBudget is the recommended Config.RecoveryBudget when the
// decode-recovery ladder is enabled: enough for a locator re-scan, the
// full μ-sweep at both the grid and the assembly level, and the ranked
// erasure pass, without letting a hopeless capture burn unbounded work.
const DefaultRecoveryBudget = 6

// Hypothesis identifiers tagged on every recovery attempt. They appear in
// RecoveryTrace, in the obs ladder series (label "hypothesis"), and in
// transport.Stats.LadderSuccessesByHypothesis.
const (
	// HypErasures: re-decode with erasure sets ranked by per-cell
	// classification confidence (lowest confidence erased first, up to the
	// parity budget).
	HypErasures = "erasures"
	// HypMuLow / HypMuHigh: re-extract the grid under the alternative
	// value-threshold weights μ = 0.45 / 0.65 (the base pass is Eq. 2's
	// μ = 0.55).
	HypMuLow  = "mu-0.45"
	HypMuHigh = "mu-0.65"
	// HypRescan: global locator re-scan after progressive prediction lost
	// the middle code-locator column (core.ErrLocatorLost).
	HypRescan = "rescan"
	// HypCombine: cross-round soft combining in the transport — a frame
	// recovered by fusing failed captures' (symbol, confidence) tables
	// across retransmission rounds.
	HypCombine = "combine"
)

// recoveryMus lists the alternative μ values the sweep tries, in ladder
// order. The set is fixed at compile time — together with the seeded
// channel/fault randomness this is what keeps the sweep deterministic.
var recoveryMus = [...]struct {
	mu  float64
	hyp string
}{
	{0.45, HypMuLow},
	{0.65, HypMuHigh},
}

// RecoveryTrace records what the decode-recovery ladder did for one decode
// operation: every hypothesis attempted, in execution order, and the one
// that won (empty when nothing recovered). Traces are deterministic: the
// same capture bytes and configuration always produce the same trace.
type RecoveryTrace struct {
	Attempts []string
	Winner   string
}

// ladder enforces the recovery budget and records attempts. A nil ladder
// or an exhausted budget refuses every attempt, so legacy code paths run
// untouched when recovery is off.
type ladder struct {
	c      *Codec
	budget int
	trace  RecoveryTrace
}

// newLadder allocates a ladder carrying the configured budget. With
// recovery off it returns nil — every ladder method accepts a nil
// receiver and refuses attempts — so the hot path never allocates for a
// ladder that could not run.
func (c *Codec) newLadder() *ladder {
	if c.cfg.RecoveryBudget <= 0 {
		return nil
	}
	return &ladder{c: c, budget: c.cfg.RecoveryBudget}
}

// tryAttempt consumes one budget unit for hypothesis hyp. It reports false
// — and records nothing — when the budget is spent or recovery is off.
func (l *ladder) tryAttempt(hyp string) bool {
	if l == nil || l.budget <= 0 {
		return false
	}
	l.budget--
	l.trace.Attempts = append(l.trace.Attempts, hyp)
	if l.c.obsOn {
		l.c.rec.Inc(obsLadderSeries(obsLadderAttempts, obs.MCoreLadderAttempts, hyp), 1)
	}
	return true
}

// win marks hyp as the hypothesis that recovered the decode (for
// grid-level hypotheses: that produced the adopted reading).
func (l *ladder) win(hyp string) {
	l.trace.Winner = hyp
	if l.c.obsOn {
		l.c.rec.Inc(obsLadderSeries(obsLadderSuccesses, obs.MCoreLadderSuccesses, hyp), 1)
	}
}

// result returns the accumulated trace, or nil when the ladder never ran.
func (l *ladder) result() *RecoveryTrace {
	if l == nil || len(l.trace.Attempts) == 0 {
		return nil
	}
	t := l.trace
	return &t
}

// AssemblePayloadSoft is AssemblePayload with the payload-level recovery
// ladder: after the standard pass fails, the ranked-erasure hypothesis
// re-decodes each RS message erasing its lowest-confidence bytes first
// (conf aligns with cells; a cell's byte inherits its weakest cell). The
// returned trace is nil when the ladder never ran. With RecoveryBudget 0
// or a nil conf the result is bit-identical to AssemblePayload.
func (c *Codec) AssemblePayloadSoft(cells []colorspace.Color, conf []float64, hdr header.Header) ([]byte, *RecoveryTrace, error) {
	lad := c.newLadder()
	payload, err := c.assembleWithLadder(cells, conf, hdr, lad, new(asmScratch))
	return payload, lad.result(), err
}

// assembleWithLadder runs the base assembly pass on as — pack the cells,
// RS-decode with the black-suspect erasures, verify the checksum — and,
// when RS or the checksum fails it, the ranked-erasure hypothesis against
// the caller's ladder on the same packed stream. A nil conf (recovery
// off) stops after the base pass. The returned payload aliases
// as.payload: copy it before the next assembly with the same scratch.
func (c *Codec) assembleWithLadder(cells []colorspace.Color, conf []float64, hdr header.Header, lad *ladder, as *asmScratch) ([]byte, error) {
	g := c.cfg.Geometry
	if len(cells) != len(g.DataCells()) {
		return nil, fmt.Errorf("core: %d cells, want %d", len(cells), len(g.DataCells()))
	}
	as.stream = grow(as.stream, g.DataCapacityBytes())
	as.suspect = grow(as.suspect, g.DataCapacityBytes())
	c.packStreamInto(cells, as.stream, as.suspect)
	payload, err := c.decodeLegacyScratch(as.stream, as.suspect, hdr.FrameChecksum, as)
	if err == nil || conf == nil || !lad.tryAttempt(HypErasures) {
		return payload, err
	}
	byteConf := byteConfidence(cells, conf, len(as.stream))
	payload, err2 := c.decodeWithPlans(as.stream, hdr.FrameChecksum, c.rankedPlans(as.suspect, byteConf), as)
	if err2 == nil {
		lad.win(HypErasures)
		return payload, nil
	}
	return nil, err
}

// byteConfidence reduces per-cell confidence to per-stream-byte: a byte is
// only as trustworthy as the weakest of the four cells it spans. Bytes
// with no cells (dead padding) stay at confidence 1 so ranking never
// erases them.
func byteConfidence(cells []colorspace.Color, conf []float64, n int) []float64 {
	bc := make([]float64, n)
	for i := range bc {
		bc[i] = 1
	}
	for i := range cells {
		b := i / 4
		if b >= n {
			break
		}
		v := 0.0
		if i < len(conf) {
			v = conf[i]
		}
		if v < bc[b] {
			bc[b] = v
		}
	}
	return bc
}

// rankedPlans extends the base pass's erasure policy with confidence-ranked
// erasure sets, folding in its all-or-nothing drop: where the base pass
// erased either every black-suspect byte or none, the ranked plans
// always erase the message's most doubtful bytes first — the full parity
// budget's worth, then half of it — before falling back to errors-only
// decoding. Ties in confidence break by byte position, keeping the plan
// order deterministic.
func (c *Codec) rankedPlans(suspect []bool, byteConf []float64) planFunc {
	capE := c.cfg.RSParity - 2
	return func(off, n int) [][]int {
		idx := make([]int, n)
		for j := range idx {
			idx[j] = j
		}
		sort.Slice(idx, func(a, b int) bool {
			ca, cb := byteConf[off+idx[a]], byteConf[off+idx[b]]
			if ca < cb {
				return true
			}
			if cb < ca {
				return false
			}
			return idx[a] < idx[b]
		})
		// Rank only genuinely doubtful bytes (confidence below 1).
		m := 0
		for m < len(idx) && m < capE && byteConf[off+idx[m]] < 1 {
			m++
		}
		var plans [][]int
		// The legacy guess first: every black-suspect byte, when they fit.
		if suspect != nil {
			var erasures []int
			for j := 0; j < n; j++ {
				if suspect[off+j] {
					erasures = append(erasures, j)
				}
			}
			if len(erasures) > 0 && len(erasures) <= capE {
				plans = append(plans, erasures)
			}
		}
		if m > 0 {
			full := append([]int(nil), idx[:m]...)
			sort.Ints(full)
			plans = append(plans, full)
			if h := m / 2; h > 0 && h < m {
				half := append([]int(nil), idx[:h]...)
				sort.Ints(half)
				plans = append(plans, half)
			}
		}
		return append(plans, nil)
	}
}

// FuseCells combines two per-cell (symbol, confidence) tables by
// max-confidence vote: each fused cell takes whichever table is more
// certain about it, the newer table winning ties. This is the
// cross-round soft-combining primitive — two individually undecodable
// captures of the same frame, weak in different cells, fuse into a table
// the ladder can decode. Tables must align with Geometry.DataCells();
// when the old table's length disagrees, the new table is returned
// unfused.
func FuseCells(oldCells []colorspace.Color, oldConf []float64, newCells []colorspace.Color, newConf []float64) ([]colorspace.Color, []float64) {
	n := len(newCells)
	cells := make([]colorspace.Color, n)
	conf := make([]float64, n)
	for i := range cells {
		cells[i] = newCells[i]
		if i < len(newConf) {
			conf[i] = newConf[i]
		}
	}
	if len(oldCells) != n || len(oldConf) != n {
		return cells, conf
	}
	for i := range cells {
		if oldConf[i] > conf[i] {
			cells[i], conf[i] = oldCells[i], oldConf[i]
		}
	}
	return cells, conf
}
