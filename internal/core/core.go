// Package core implements the RainBar codec — the paper's primary
// contribution. The encoder maps payload bytes onto color-barcode frames
// with the layout of §III-B (tracking bars, two corner trackers, three
// code-locator columns, CRC/RS protection); the decoder recovers payload
// from captured images using the paper's pipeline: brightness assessment
// (§III-C), corner-tracker detection, progressive code-locator
// localization (§III-E), HSV-based robust code extraction (§III-F), and
// tracking-bar frame synchronization (§III-D).
package core

import (
	"errors"
	"fmt"

	"rainbar/internal/core/header"
	"rainbar/internal/core/layout"
	"rainbar/internal/obs"
	"rainbar/internal/rs"
)

// DefaultRSParity is the Reed-Solomon parity bytes per 255-byte message
// (corrects 8 byte errors per message).
const DefaultRSParity = 16

// rsMessageLen is the full Reed-Solomon block length over GF(2^8).
const rsMessageLen = 255

// Config describes a RainBar codec instance. Both sides must agree on the
// geometry and RS parity (the barcode format); the display rate and
// application type travel in each frame's header.
type Config struct {
	// Geometry is the frame layout (screen size and block size).
	Geometry *layout.Geometry
	// RSParity is the parity bytes per RS message (default DefaultRSParity).
	RSParity int
	// DisplayRate is the advertised display rate (fps) placed in headers.
	DisplayRate uint8
	// AppType is the application-type code placed in headers.
	AppType uint8

	// DisableMiddleLocators makes the decoder localize blocks from the
	// left and right locator columns only, ignoring the middle column —
	// the ablation for the paper's Fig. 4 claim that one middle column
	// fixes COBRA-style mid-screen localization drift. Decoder-side only;
	// frames are still encoded with all three columns.
	DisableMiddleLocators bool
	// DisableLocationCorrection skips the K-means centroid refinement of
	// §III-E: locators are placed purely by dead reckoning from the
	// previous one. Decoder-side only.
	DisableLocationCorrection bool

	// RecoveryBudget bounds the decode-recovery ladder: the maximum number
	// of retry hypotheses (ranked erasures, μ-sweep, locator re-scan) spent
	// per decode operation — per capture for grid-level hypotheses, per
	// frame for payload-level ones. 0 disables the ladder entirely and
	// reproduces the single-shot decoder bit for bit; DefaultRecoveryBudget
	// is a sensible "on" value. Decoder-side only.
	RecoveryBudget int
	// RecoveryErasuresOnly restricts the ladder to the ranked-erasure
	// hypothesis, disabling the μ-sweep and locator re-scan (the ablation's
	// "erasures" mode). Meaningful only when RecoveryBudget > 0.
	RecoveryErasuresOnly bool

	// Recorder receives pipeline metrics (stage timings, classification
	// tallies, RS correction load). Nil disables instrumentation at
	// negligible cost. The codec never constructs clocks or recorders
	// itself: span durations come from whatever clock the injected
	// recorder was built with, keeping decode behavior deterministic.
	Recorder obs.Recorder
}

// Codec encodes and decodes RainBar frames. Create with NewCodec; a Codec
// is immutable and safe for concurrent use.
type Codec struct {
	cfg      Config
	rsc      *rs.Codec
	msgSizes []int // data bytes per RS message within one frame
	capacity int   // payload bytes per frame
	locRows  []int // cached Geometry.LocatorRows() (per-cell hot path)

	rec   obs.Recorder // never nil; obs.OrNop supplies the no-op recorder when unset
	obsOn bool         // gates observation-only work on the hot path
}

// Errors reported by the codec.
var (
	// ErrNoCornerTrackers means the decoder could not find both corner
	// trackers in a captured image.
	ErrNoCornerTrackers = errors.New("core: corner trackers not found")
	// ErrBadFrame means a frame failed error correction or its checksum.
	ErrBadFrame = errors.New("core: frame failed error correction")
	// ErrPayloadTooLarge means Encode was given more bytes than one frame
	// holds.
	ErrPayloadTooLarge = errors.New("core: payload exceeds frame capacity")
	// ErrInconsistentBars means the tracking bars disagree with the header
	// by 2 or more steps; the paper drops such captures (§III-D).
	ErrInconsistentBars = errors.New("core: inconsistent tracking bars")
)

// NewCodec validates the configuration and precomputes the frame's RS
// message structure.
func NewCodec(cfg Config) (*Codec, error) {
	if cfg.Geometry == nil {
		return nil, fmt.Errorf("core: nil geometry")
	}
	if cfg.RSParity == 0 {
		cfg.RSParity = DefaultRSParity
	}
	if got := cfg.Geometry.HeaderCapacityBits(); got < header.Bits {
		return nil, fmt.Errorf("core: header strip holds %d bits, need %d; use a wider screen or smaller blocks", got, header.Bits)
	}
	rsc, err := rs.New(cfg.RSParity)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	c := &Codec{cfg: cfg, rsc: rsc, rec: obs.OrNop(cfg.Recorder), obsOn: obs.Enabled(cfg.Recorder)}
	c.locRows = cfg.Geometry.LocatorRows()

	// Partition the frame's data area into RS messages. Full messages are
	// 255 bytes; the remainder forms a short final message if it can hold
	// at least one data byte, otherwise it is dead padding.
	area := cfg.Geometry.DataCapacityBytes()
	remaining := area
	for remaining >= rsMessageLen {
		c.msgSizes = append(c.msgSizes, rsMessageLen-cfg.RSParity)
		remaining -= rsMessageLen
	}
	if remaining > cfg.RSParity {
		c.msgSizes = append(c.msgSizes, remaining-cfg.RSParity)
	}
	for _, k := range c.msgSizes {
		c.capacity += k
	}
	if c.capacity == 0 {
		return nil, fmt.Errorf("core: geometry too small for any payload (area %d bytes, parity %d)", area, cfg.RSParity)
	}
	return c, nil
}

// Config returns the codec configuration.
func (c *Codec) Config() Config { return c.cfg }

// FrameCapacity returns the payload bytes carried by one frame after
// CRC/RS overhead.
func (c *Codec) FrameCapacity() int { return c.capacity }

// Geometry returns the frame geometry.
func (c *Codec) Geometry() *layout.Geometry { return c.cfg.Geometry }
