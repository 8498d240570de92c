// Package serve is the rainbar-serve daemon core: a long-running server
// that multiplexes many concurrent transfer sessions over simulated
// screen-camera links. Each session is a small state machine (idle →
// transferring → stalled → done/failed/canceled) advanced one display
// round at a time by a bounded worker pool, with admission control
// (ErrOverloaded past MaxSessions), graceful drain, and snapshot/restore:
// any session can be serialized at a round boundary — HARQ soft tables,
// collector contents, round/rate/budget counters — into a versioned,
// CRC-guarded binary snapshot and resumed later, in the same process or
// another daemon instance, continuing bit-identically.
//
// serve is a determinism-contract package: round outcomes are pure
// functions of (SessionSpec, round number). The transport driver rebuilds
// the link for round r from seeds mixed as splitmix64(base, r), so a
// restored session replays the exact link a never-interrupted one would
// have seen. Scheduling order and worker count affect only wall-clock
// interleaving, never session results.
package serve

import (
	"errors"

	"rainbar/internal/camera"
	"rainbar/internal/channel"
)

// State is a session's position in its lifecycle.
type State uint8

const (
	// StateIdle means admitted but not yet stepped.
	StateIdle State = iota
	// StateTransferring means the last round made progress.
	StateTransferring
	// StateStalled means the last round delivered nothing new (the
	// transport's rate-fallback policy is engaging).
	StateStalled
	// StateDone means the payload was delivered bit-exactly.
	StateDone
	// StateFailed means the transfer ended without full delivery or a
	// link-level error stopped it.
	StateFailed
	// StateCanceled means the session was canceled before completion.
	StateCanceled
)

// Terminal reports whether no further round will run.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed || s == StateCanceled }

// String returns the lifecycle name.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateTransferring:
		return "transferring"
	case StateStalled:
		return "stalled"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCanceled:
		return "canceled"
	}
	return "unknown"
}

// Sentinel errors; match with errors.Is.
var (
	// ErrOverloaded rejects admission when MaxSessions are already live.
	ErrOverloaded = errors.New("serve: overloaded")
	// ErrStopped rejects work after shutdown began.
	ErrStopped = errors.New("serve: server stopped")
	// ErrUnknownSession reports an id not in the registry.
	ErrUnknownSession = errors.New("serve: unknown session")
	// ErrSessionTerminal reports an operation needing a live session.
	ErrSessionTerminal = errors.New("serve: session already terminal")
	// ErrSessionActive reports an operation needing a terminal session.
	ErrSessionActive = errors.New("serve: session still active")
	// ErrCanceled is the terminal error of a canceled session.
	ErrCanceled = errors.New("serve: session canceled")
	// ErrBadSpec rejects a session spec that describes no valid transfer.
	ErrBadSpec = errors.New("serve: bad session spec")
)

// SessionSpec fully describes one transfer session: payload, geometry,
// link condition, and degradation knobs. It is JSON-serializable and
// embedded verbatim in snapshots, so a restored daemon can rebuild the
// exact same deterministic link. The zero value of optional fields picks
// the repository defaults.
type SessionSpec struct {
	// Payload is the file to transfer.
	Payload []byte
	// ScreenW, ScreenH, Block set the barcode geometry (default 480x270,
	// block 10).
	ScreenW, ScreenH, Block int
	// DisplayRate is the sender's display rate in fps (default 10).
	DisplayRate float64
	// Channel is the optical condition; Channel.Seed is the base seed the
	// per-round channel seeds are mixed from.
	Channel channel.Config
	// CamRateFPS, CamReadout, CamSeed configure the receiver camera
	// (defaults: the paper's 30 fps, 0.9 readout).
	CamRateFPS float64
	CamReadout float64
	CamSeed    int64
	// Faults is a faults.ParseSpec chain description ("drop=0.1,seed=7");
	// empty means a clean link. The spec's seed is the base the per-round
	// chain seeds are mixed from.
	Faults string
	// Recovery is the decode-recovery mode (off, erasures, ladder,
	// combine); empty means off.
	Recovery string
	// MaxRounds, StallRounds, FrameBudget, MinDisplayRate are the
	// transport degradation knobs (zero picks transport defaults).
	MaxRounds      int
	StallRounds    int
	FrameBudget    int
	MinDisplayRate float64
}

// withDefaults returns a copy with zero-valued optionals resolved, so a
// spec means the same link no matter which daemon instance interprets it.
func (sp SessionSpec) withDefaults() SessionSpec {
	if sp.ScreenW == 0 && sp.ScreenH == 0 && sp.Block == 0 {
		sp.ScreenW, sp.ScreenH, sp.Block = 480, 270, 10
	}
	if sp.DisplayRate <= 0 {
		sp.DisplayRate = 10
	}
	// A channel config with no positive distance cannot be valid; treat it
	// as unset (keeping a caller-chosen seed) rather than rejecting.
	if sp.Channel.DistanceCM <= 0 {
		seed := sp.Channel.Seed
		sp.Channel = channel.DefaultConfig()
		if seed != 0 {
			sp.Channel.Seed = seed
		}
	}
	// Each camera field defaults on its own: a spec may set the rate and
	// leave the readout to the default, or the other way round.
	def := camera.Default()
	if sp.CamRateFPS <= 0 {
		sp.CamRateFPS = def.RateFPS
	}
	if sp.CamReadout <= 0 {
		sp.CamReadout = def.ReadoutFraction
	}
	return sp
}

// mixSeed derives the seed for one round of one subsystem from the spec's
// base seed: splitmix64 over the (base, round, salt) triple, so per-round
// link randomness is a pure function of (spec, round) and neighboring
// rounds are uncorrelated. This is what makes snapshot/restore exact — a
// resumed session regenerates round r's link from r alone, with no PRNG
// state to carry across the snapshot.
func mixSeed(base int64, round int, salt uint64) int64 {
	x := uint64(base) + 0x9E3779B97F4A7C15*uint64(round+1) + salt
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}
