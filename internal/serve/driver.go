package serve

import (
	"fmt"
	"math"
	"time"

	"rainbar/internal/camera"
	"rainbar/internal/channel"
	"rainbar/internal/core"
	"rainbar/internal/core/layout"
	"rainbar/internal/faults"
	"rainbar/internal/obs"
	"rainbar/internal/transport"
)

// StepInfo reports what one driver step did.
type StepInfo struct {
	// Done means no further step will run; call Result for the verdict.
	Done bool
	// Progress means the step delivered at least one new chunk.
	Progress bool
	// Air is the simulated display time the step consumed (zero when the
	// step ran no round, e.g. the transfer was already exhausted).
	Air time.Duration
}

// Driver advances one session's transfer. Implementations need not be
// concurrency-safe; the server serializes all calls per session.
type Driver interface {
	// Step runs one display round. A non-nil error is fatal to the
	// session (the server moves it to StateFailed).
	Step() (StepInfo, error)
	// Snapshot serializes the mid-transfer state at the current round
	// boundary. The bytes are opaque to the server and embedded in the
	// snapshot envelope.
	Snapshot() ([]byte, error)
	// Result returns the delivered payload and transfer statistics once
	// Step reported Done.
	Result() ([]byte, *transport.Stats, error)
}

// Factory builds drivers for admitted and restored sessions. The server
// uses the transport-backed factory unless Config.Factory overrides it
// (tests substitute lightweight fakes).
type Factory interface {
	New(spec SessionSpec) (Driver, error)
	Restore(spec SessionSpec, state []byte) (Driver, error)
}

// salts separating the per-round seed streams of each link subsystem.
const (
	saltChannel = 0x636861 // "cha"
	saltCamera  = 0x63616d // "cam"
	saltFaults  = 0x666c74 // "flt"
)

// transportFactory builds drivers that run real transfers over the
// simulated optical link.
type transportFactory struct {
	// rec, when set, is injected into each session's transport layer.
	rec obs.Recorder
}

// DefaultFactory returns the transport-backed factory the server uses
// when Config.Factory is nil: real transfers over the simulated link.
// The chaos harness wraps it to inject worker-level faults in front of
// real drivers.
func DefaultFactory(rec obs.Recorder) Factory { return transportFactory{rec: rec} }

// transportDriver advances one transport.Xfer round by round, rebuilding
// the link before every round from seeds mixed out of (spec, round).
type transportDriver struct {
	spec   SessionSpec
	sess   *transport.Session
	x      *transport.Xfer
	chain  *faults.Chain // parsed injector prototype, nil for a clean link
	result []byte
	stats  *transport.Stats
	resErr error
	sealed bool
}

// maxSpecPayload bounds a spec's payload: a daemon takes specs from the
// outside world (HTTP, snapshots), so payload sizes are capped before any
// allocation is sized from them. layout.NewGeometry caps the screen.
const maxSpecPayload = 16 << 20

// newSession builds the transport session a spec describes (link installed
// separately by relink).
func (f transportFactory) newSession(spec SessionSpec) (*transport.Session, *faults.Chain, error) {
	if len(spec.Payload) > maxSpecPayload {
		return nil, nil, fmt.Errorf("%w: payload %d bytes exceeds %d", ErrBadSpec, len(spec.Payload), maxSpecPayload)
	}
	if spec.MaxRounds < 0 || spec.MaxRounds > 1<<16 {
		return nil, nil, fmt.Errorf("%w: MaxRounds %d outside [0, %d]", ErrBadSpec, spec.MaxRounds, 1<<16)
	}
	// Frame headers carry the display rate in one byte.
	if !(spec.DisplayRate > 0 && spec.DisplayRate <= math.MaxUint8) {
		return nil, nil, fmt.Errorf("%w: DisplayRate %v outside (0, %d]", ErrBadSpec, spec.DisplayRate, math.MaxUint8)
	}
	geo, err := layout.NewGeometry(spec.ScreenW, spec.ScreenH, spec.Block)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: geometry: %w", ErrBadSpec, err)
	}
	ccfg := core.Config{Geometry: geo, DisplayRate: uint8(spec.DisplayRate)}
	mode := transport.RecoveryOff
	if spec.Recovery != "" {
		mode, err = transport.ParseRecoveryMode(spec.Recovery)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: recovery: %w", ErrBadSpec, err)
		}
	}
	combine := mode.Configure(&ccfg)
	codec, err := core.NewCodec(ccfg)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: codec: %w", ErrBadSpec, err)
	}
	chain, err := faults.ParseSpec(spec.Faults)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: faults: %w", ErrBadSpec, err)
	}
	sess := &transport.Session{
		Codec:          codec,
		MaxRounds:      spec.MaxRounds,
		MinDisplayRate: spec.MinDisplayRate,
		StallRounds:    spec.StallRounds,
		FrameBudget:    spec.FrameBudget,
		Combine:        combine,
		Recorder:       f.rec,
	}
	return sess, chain, nil
}

// relink rebuilds the session's link for the given round. Every seed is a
// pure function of (spec, round), so a session resumed from a snapshot at
// any round boundary sees exactly the link the uninterrupted run would
// have — there is no cross-round PRNG state to lose.
func (d *transportDriver) relink(round int) error {
	ccfg := d.spec.Channel
	ccfg.Seed = mixSeed(d.spec.Channel.Seed, round, saltChannel)
	ch, err := channel.New(ccfg)
	if err != nil {
		return fmt.Errorf("%w: channel: %w", ErrBadSpec, err)
	}
	cam := camera.Camera{
		RateFPS:         d.spec.CamRateFPS,
		ReadoutFraction: d.spec.CamReadout,
		Seed:            mixSeed(d.spec.CamSeed, round, saltCamera),
	}
	if err := cam.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	if d.chain != nil {
		cam.Faults = faults.NewChain(mixSeed(d.chain.Seed, round, saltFaults), d.chain.Injectors...)
	}
	d.sess.Link = transport.Link{Channel: ch, Camera: cam, DisplayRate: d.spec.DisplayRate}
	return nil
}

func (f transportFactory) New(spec SessionSpec) (Driver, error) {
	spec = spec.withDefaults()
	sess, chain, err := f.newSession(spec)
	if err != nil {
		return nil, err
	}
	d := &transportDriver{spec: spec, sess: sess, chain: chain}
	if err := d.relink(1); err != nil {
		return nil, err
	}
	x, err := sess.Begin(spec.Payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	d.x = x
	return d, nil
}

func (f transportFactory) Restore(spec SessionSpec, state []byte) (Driver, error) {
	spec = spec.withDefaults()
	sess, chain, err := f.newSession(spec)
	if err != nil {
		return nil, err
	}
	d := &transportDriver{spec: spec, sess: sess, chain: chain}
	// Resume validates the state against a freshly Begin-ed transfer, so
	// the link must already be in place.
	if err := d.relink(1); err != nil {
		return nil, err
	}
	st, err := decodeXferState(state)
	if err != nil {
		return nil, err
	}
	x, err := sess.Resume(spec.Payload, st)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	d.x = x
	return d, nil
}

func (d *transportDriver) Step() (StepInfo, error) {
	if d.x.Done() {
		return StepInfo{Done: true}, nil
	}
	if err := d.relink(d.x.Round() + 1); err != nil {
		return StepInfo{Done: true}, err
	}
	missBefore := d.x.MissingCount()
	airBefore := d.x.Stats().AirTime
	done, err := d.x.Step()
	if err != nil {
		return StepInfo{Done: true}, err
	}
	return StepInfo{
		Done:     done,
		Progress: d.x.MissingCount() < missBefore,
		Air:      d.x.Stats().AirTime - airBefore,
	}, nil
}

// Resumes reports the transfer's resume-generation count (surfaced as
// SessionInfo.Resumes).
func (d *transportDriver) Resumes() int { return d.x.Resumes() }

func (d *transportDriver) Snapshot() ([]byte, error) {
	if d.sealed {
		return nil, ErrSessionTerminal
	}
	return encodeXferState(d.x.State()), nil
}

func (d *transportDriver) Result() ([]byte, *transport.Stats, error) {
	if !d.sealed {
		if !d.x.Done() {
			return nil, nil, ErrSessionActive
		}
		d.result, d.stats, d.resErr = d.x.Seal()
		d.sealed = true
	}
	return d.result, d.stats, d.resErr
}
