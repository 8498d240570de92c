package serve

import (
	"errors"
	"fmt"
	"time"

	"rainbar/internal/obs"
)

// Supervision sentinels; match with errors.Is.
var (
	// ErrTransient marks a step failure worth retrying. A driver opts in
	// by returning an error wrapping it; everything else is fatal on
	// first occurrence. A driver returning a transient error must leave
	// itself steppable — the server retries the same round after a
	// seed-deterministic backoff.
	ErrTransient = errors.New("serve: transient failure")
	// ErrPanicked is the terminal error of a session whose driver
	// panicked; the panic is confined to that session.
	ErrPanicked = errors.New("serve: session panicked")
	// ErrRoundDeadline is the terminal error of a session whose round
	// overran Config.RoundDeadline.
	ErrRoundDeadline = errors.New("serve: round deadline exceeded")

	// errStopMidRetry aborts a backoff wait because the server is
	// stopping; the session stays live at its round boundary, exactly
	// like Stop interrupting a queued session.
	errStopMidRetry = errors.New("serve: stop during retry backoff")
)

// Transient reports whether a step error is retryable.
func Transient(err error) bool { return errors.Is(err, ErrTransient) }

// saltRetry separates the backoff-jitter seed stream from the link
// subsystems' (driver.go).
const saltRetry = 0x727479 // "rty"

// RetryPolicy bounds retries of transient step failures. The zero value
// disables retries (every error is fatal on first occurrence).
type RetryPolicy struct {
	// MaxRetries is the number of retries after the first attempt.
	MaxRetries int
	// Backoff is the first retry's base delay (default 10ms when
	// MaxRetries > 0); attempt n waits Backoff·2ⁿ, capped at MaxBackoff.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth (default 1s).
	MaxBackoff time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Backoff <= 0 {
		p.Backoff = 10 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = time.Second
	}
	return p
}

// delay computes attempt n's backoff: exponential growth capped at
// MaxBackoff, then equal-jitter (half fixed, half seed-deterministic) so
// colliding retries spread out without wall-clock randomness — the same
// (seed, attempt) always waits the same duration.
func (p RetryPolicy) delay(attempt int, seed int64) time.Duration {
	d := p.MaxBackoff
	if attempt < 32 {
		if e := p.Backoff << attempt; e < d {
			d = e
		}
	}
	half := d / 2
	jitter := time.Duration(uint64(mixSeed(seed, attempt, saltRetry)) % uint64(half+1))
	return half + jitter
}

// WatchClock supplies the watchdog timers behind round deadlines and
// retry backoff. The default implementation uses real timers — a
// deliberate, narrow exception to serve's determinism contract: timers
// decide only when a wedged round is declared dead or a retry fires,
// never what any round computes. Tests and the chaos harness inject
// ManualWatch to make even those decisions deterministic.
type WatchClock interface {
	// After returns a channel that delivers once d has elapsed.
	After(d time.Duration) <-chan time.Time
}

type realWatch struct{}

func (realWatch) After(d time.Duration) <-chan time.Time { return time.After(d) }

// safeStep runs one driver step with panic isolation: a panicking
// driver fails its own session with ErrPanicked and the cause; the
// worker — and every other session — keeps running.
func (s *Server) safeStep(drv Driver) (info StepInfo, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.rec.Inc(obs.MServePanicsRecovered, 1)
			info, err = StepInfo{}, fmt.Errorf("%w: %v", ErrPanicked, r)
		}
	}()
	return drv.Step()
}

// stepOutcome carries one guarded step's result across the watchdog
// channel.
type stepOutcome struct {
	info StepInfo
	err  error
}

// guardedStep runs one step under the round deadline. On expiry the
// session fails with ErrRoundDeadline and the wedged step is abandoned:
// its goroutine parks on the buffered channel send whenever it does
// finish, and the server never touches that driver again (the session
// is terminal, and drivers are never called through terminal sessions).
// Deadline expiries are never retried — the abandoned step may still be
// running, and a concurrent retry would race it.
func (s *Server) guardedStep(sess *session) (StepInfo, error) {
	if s.deadline <= 0 {
		return s.safeStep(sess.drv)
	}
	done := make(chan stepOutcome, 1)
	// Read the driver here, under sess.mu: once the deadline abandons the
	// step, the session turns terminal and releases its driver field.
	drv := sess.drv
	go func() {
		info, err := s.safeStep(drv)
		done <- stepOutcome{info, err}
	}()
	select {
	case out := <-done:
		return out.info, out.err
	case <-s.watch.After(s.deadline):
		s.rec.Inc(obs.MServeDeadlineExpiries, 1)
		return StepInfo{}, fmt.Errorf("%w: round %d exceeded %v", ErrRoundDeadline, sess.rounds+1, s.deadline)
	}
}

// supervise runs one round with the full supervision stack: panic
// isolation, round deadline, and bounded retries of transient failures
// with seed-deterministic exponential backoff. A stop during backoff
// returns errStopMidRetry and leaves the session live at its round
// boundary for migration.
func (s *Server) supervise(sess *session) (StepInfo, error) {
	for attempt := 0; ; attempt++ {
		info, err := s.guardedStep(sess)
		if err == nil || !Transient(err) || attempt >= s.retry.MaxRetries {
			return info, err
		}
		s.rec.Inc(obs.MServeRetries, 1)
		// The jitter seed mixes the session id and round so concurrent
		// retries de-correlate, while staying a pure function of
		// (session, round, attempt).
		seed := int64(sess.id)<<16 ^ int64(sess.rounds)
		select {
		case <-s.watch.After(s.retry.delay(attempt, seed)):
		case <-s.stop:
			return info, errStopMidRetry
		}
	}
}
