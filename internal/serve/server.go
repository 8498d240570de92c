package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"rainbar/internal/obs"
	"rainbar/internal/serve/journal"
	"rainbar/internal/transport"
)

// Config configures a Server.
type Config struct {
	// MaxSessions bounds concurrently live (non-terminal) sessions;
	// admission past it fails with ErrOverloaded (default 1024).
	MaxSessions int
	// Workers is the stepping-pool size (default 4). Worker count affects
	// only scheduling, never session outcomes.
	Workers int
	// Factory builds session drivers; nil uses the transport-backed
	// factory (real transfers over the simulated link).
	Factory Factory
	// Recorder, when set, counts admissions, rejections, completions,
	// rounds and snapshots. Session outcomes never depend on it.
	Recorder obs.Recorder
	// Journal, when set, makes the server crash-tolerant: admissions,
	// round-boundary checkpoints and terminal states are appended as
	// they happen, and Recover rebuilds the live fleet from the journal
	// after a crash. Journal write failures never fail sessions —
	// availability over durability — but they poison the journal and
	// degrade Health until a compaction succeeds.
	Journal *journal.Journal
	// CheckpointEvery is the round interval between checkpoint records
	// per session (default 8). Smaller means less replayed work after a
	// crash, at more journal bytes per session.
	CheckpointEvery int
	// RoundDeadline, when positive, bounds one driver step: a round
	// exceeding it fails its session with ErrRoundDeadline (the wedged
	// step is abandoned) while the rest of the fleet keeps running. Off
	// by default — with the default real-timer watch a deadline trades
	// determinism for liveness, so it is strictly opt-in.
	RoundDeadline time.Duration
	// Retry bounds retries of steps failing with ErrTransient-wrapped
	// errors. The zero value disables retries.
	Retry RetryPolicy
	// Watch supplies watchdog timers for deadlines and retry backoff;
	// nil uses real timers. Tests inject ManualWatch for determinism.
	Watch WatchClock
}

// SessionInfo is a registry read of one session.
type SessionInfo struct {
	ID    uint64
	State State
	// Rounds is the number of display rounds stepped so far.
	Rounds int
	// Air is the cumulative simulated display time.
	Air time.Duration
	// RoundAirs lists each stepped round's simulated display time (the
	// load harness derives round-latency percentiles from these).
	RoundAirs []time.Duration
	// Bytes is the delivered payload size (terminal Done sessions only).
	Bytes int
	// Resumes is how many snapshot/restore generations precede this
	// session (0 for a fresh submit) — the driver's resume metadata,
	// when it exposes any.
	Resumes int
	// Err is the terminal failure, "" otherwise.
	Err string
}

// session is one registry entry. Its mutex is held for the whole of every
// step, so Snapshot and Cancel always observe a round boundary. Lock order
// is session.mu before Server.mu; the server never calls into a session
// while holding its own lock.
type session struct {
	id uint64

	mu      sync.Mutex
	state   State
	drv     Driver
	spec    SessionSpec
	cancel  bool
	rounds  int
	air     time.Duration
	airs    []time.Duration
	result  []byte
	stats   *transport.Stats
	err     error
	queued  bool
	resumes int
	// lastCheck is the most recent checkpoint envelope (restored
	// sessions start with their restore envelope), what a journal
	// compaction keeps for this session.
	lastCheck []byte
}

// release drops what only a live session uses once it turns terminal:
// the driver (transport session, codec, channel), the spec and the last
// checkpoint. Reads of a terminal session use only its id, state, error,
// result and stats. Called with sess.mu held.
func (sess *session) release() {
	sess.drv, sess.spec, sess.lastCheck = nil, SessionSpec{}, nil
}

// Server multiplexes transfer sessions over a bounded worker pool. Every
// non-terminal session is either sitting in the run queue or being stepped
// by exactly one worker; terminal sessions stay in the registry (for
// Result/Info reads) until Remove.
type Server struct {
	cfg      Config
	factory  Factory
	rec      obs.Recorder
	watch    WatchClock
	retry    RetryPolicy
	deadline time.Duration

	// jmu serializes journal appends against compaction's keep-list
	// build, so a compact never drops a record appended between listing
	// the live sessions and rewriting the file.
	jmu     sync.Mutex
	journal *journal.Journal

	mu       sync.Mutex
	cond     *sync.Cond // signaled when active drops to zero
	sessions map[uint64]*session
	nextID   uint64
	active   int  // non-terminal sessions
	stopped  bool // admission closed
	closed   bool // stop channel closed

	queue chan *session
	stop  chan struct{}
	wg    sync.WaitGroup
}

// NewServer starts a server and its worker pool.
func NewServer(cfg Config) *Server {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 1024
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 8
	}
	if cfg.Watch == nil {
		cfg.Watch = realWatch{}
	}
	s := &Server{
		cfg:      cfg,
		factory:  cfg.Factory,
		rec:      obs.OrNop(cfg.Recorder),
		watch:    cfg.Watch,
		retry:    cfg.Retry.withDefaults(),
		deadline: cfg.RoundDeadline,
		journal:  cfg.Journal,
		sessions: make(map[uint64]*session),
		// Capacity MaxSessions keeps enqueue non-blocking: at most
		// MaxSessions sessions are live and each holds at most one queue
		// slot (the queued flag), so workers can never deadlock re-queuing.
		queue: make(chan *session, cfg.MaxSessions),
		stop:  make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	if s.factory == nil {
		s.factory = transportFactory{rec: cfg.Recorder}
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Submit admits a new session and returns its id. Fails with
// ErrOverloaded at the MaxSessions bound and ErrStopped after shutdown
// began.
func (s *Server) Submit(spec SessionSpec) (uint64, error) {
	drv, err := s.factory.New(spec)
	if err != nil {
		return 0, err
	}
	return s.admit(spec, drv, obs.MServeSubmitted, nil)
}

// Restore decodes a snapshot and admits the session it describes under a
// fresh id. Terminal-state snapshots are rejected: there is nothing left
// to run, and silently re-completing a finished transfer would double
// count it.
func (s *Server) Restore(data []byte) (uint64, error) {
	snap, err := DecodeSnapshot(data)
	if err != nil {
		return 0, err
	}
	if snap.State.Terminal() {
		return 0, fmt.Errorf("%w: snapshot of %s session", ErrSessionTerminal, snap.State)
	}
	drv, err := s.factory.Restore(snap.Spec, snap.DriverState)
	if err != nil {
		return 0, err
	}
	return s.admit(snap.Spec, drv, obs.MServeRestored, snap)
}

// admit registers a driver-backed session, journals its admission, and
// queues its first step. snap is non-nil for restored sessions (their
// first journal record is a checkpoint, not a submit, so recovery
// resumes mid-transfer instead of restarting).
func (s *Server) admit(spec SessionSpec, drv Driver, metric string, snap *Snapshot) (uint64, error) {
	return s.admitAs(spec, drv, metric, snap, 0)
}

// admitAs is admit with id control: id 0 assigns the next fresh id and
// journals the admission; a non-zero id re-registers a recovered
// session under its pre-crash identity WITHOUT journaling it again —
// its records are already the journal's latest generation, and keeping
// the id is what lets those records keep describing this session across
// any number of crashes.
func (s *Server) admitAs(spec SessionSpec, drv Driver, metric string, snap *Snapshot, id uint64) (uint64, error) {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return 0, ErrStopped
	}
	if s.active >= s.cfg.MaxSessions {
		s.mu.Unlock()
		s.rec.Inc(obs.MServeRejectedOverload, 1)
		return 0, ErrOverloaded
	}
	fresh := id == 0
	if fresh {
		s.nextID++
		id = s.nextID
	} else {
		if _, dup := s.sessions[id]; dup {
			s.mu.Unlock()
			return 0, fmt.Errorf("%w: id %d already registered", ErrSessionActive, id)
		}
		if id > s.nextID {
			s.nextID = id
		}
	}
	sess := &session{id: id, state: StateIdle, drv: drv, spec: spec, queued: true}
	if r, ok := drv.(interface{ Resumes() int }); ok {
		sess.resumes = r.Resumes()
	}
	if snap != nil {
		reissued := *snap
		reissued.ID = sess.id
		if env, err := EncodeSnapshot(&reissued); err == nil {
			sess.lastCheck = env
		}
	}
	s.sessions[sess.id] = sess
	s.active++
	s.mu.Unlock()
	s.rec.Inc(metric, 1)
	if fresh {
		// The admission record lands before the session can run (it is
		// not yet queued), so a crash can never leave a
		// stepped-but-unjournaled session behind.
		s.journalAppend(s.admitRecord(sess))
	}
	s.queue <- sess
	return sess.id, nil
}

// admitRecord builds the admission journal record: a checkpoint for
// restored sessions, a submit (spec JSON) for fresh ones.
func (s *Server) admitRecord(sess *session) *journal.Record {
	if s.journal == nil {
		return nil
	}
	if sess.lastCheck != nil {
		return &journal.Record{Kind: journal.KindCheckpoint, ID: sess.id, Snapshot: sess.lastCheck}
	}
	spec, err := json.Marshal(sess.spec)
	if err != nil {
		return nil
	}
	return &journal.Record{Kind: journal.KindSubmit, ID: sess.id, Spec: spec}
}

// worker steps queued sessions until the server stops.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		// Closed stop wins over a ready queue, so Stop halts promptly
		// instead of racing the select's random choice.
		select {
		case <-s.stop:
			return
		default:
		}
		select {
		case <-s.stop:
			return
		case sess := <-s.queue:
			s.step(sess)
		}
	}
}

// step advances one session by one round under the supervision stack
// (panic isolation, round deadline, transient retries), journals the
// round's outcome, and re-queues or finalizes the session.
func (s *Server) step(sess *session) {
	sess.mu.Lock()
	sess.queued = false
	if sess.state.Terminal() {
		sess.mu.Unlock()
		return
	}
	if sess.cancel {
		sess.state = StateCanceled
		sess.err = ErrCanceled
		rec := s.terminalRecord(sess)
		sess.release()
		sess.mu.Unlock()
		s.journalAppend(rec)
		s.finished(StateCanceled)
		s.maybeCompact()
		return
	}
	//lint:allow RB-C3 deliberate: sess.mu scopes one session and is held for the whole round so Snapshot and Cancel observe round boundaries; the supervised step blocks only on this session's own watchdog timers, retry backoff, and IngestBatch's bounded workers
	info, err := s.supervise(sess)
	if errors.Is(err, errStopMidRetry) {
		// Stop interrupted a retry backoff: leave the session live at its
		// round boundary (the same migration semantics as Stop draining
		// the queue) with no terminal record.
		sess.mu.Unlock()
		return
	}
	if info.Air > 0 {
		sess.rounds++
		sess.air += info.Air
		sess.airs = append(sess.airs, info.Air)
		s.rec.Inc(obs.MServeRounds, 1)
	}
	switch {
	case err != nil:
		sess.state = StateFailed
		sess.err = err
	case info.Done:
		result, stats, rerr := sess.drv.Result()
		sess.result, sess.stats, sess.err = result, stats, rerr
		if rerr != nil {
			sess.state = StateFailed
		} else {
			sess.state = StateDone
		}
	case info.Progress:
		sess.state = StateTransferring
	default:
		sess.state = StateStalled
	}
	terminal := sess.state.Terminal()
	var rec *journal.Record
	if terminal {
		rec = s.terminalRecord(sess)
		sess.release()
	} else {
		sess.queued = true
		rec = s.checkpointRecord(sess)
	}
	final := sess.state
	sess.mu.Unlock()

	// Journal before re-queuing: the session cannot be stepped again
	// until it is back in the queue, so its records stay in round order.
	s.journalAppend(rec)
	if terminal {
		s.finished(final)
		s.maybeCompact()
	} else {
		s.queue <- sess
	}
}

// checkpointRecord snapshots the session into a checkpoint record when
// one is due (every CheckpointEvery rounds). Called with sess.mu held,
// at the round boundary the step just reached. Snapshot failures skip
// the checkpoint — the previous one (or the submit record) still
// recovers the session, just further back.
func (s *Server) checkpointRecord(sess *session) *journal.Record {
	if s.journal == nil || sess.rounds == 0 || sess.rounds%s.cfg.CheckpointEvery != 0 {
		return nil
	}
	state, err := sess.drv.Snapshot()
	if err != nil {
		return nil
	}
	env, err := EncodeSnapshot(&Snapshot{ID: sess.id, State: sess.state, Spec: sess.spec, DriverState: state})
	if err != nil {
		return nil
	}
	sess.lastCheck = env
	return &journal.Record{Kind: journal.KindCheckpoint, ID: sess.id, Snapshot: env}
}

// terminalRecord builds the session's end-of-life record. Called with
// sess.mu held.
func (s *Server) terminalRecord(sess *session) *journal.Record {
	if s.journal == nil {
		return nil
	}
	rec := &journal.Record{Kind: journal.KindTerminal, ID: sess.id, State: byte(sess.state)}
	if sess.err != nil {
		rec.Err = sess.err.Error()
	}
	return rec
}

// journalAppend appends one record (nil is a no-op). Append failures
// are sticky inside the journal and surface on Health; they never fail
// the session — a daemon with a full disk keeps serving, degraded.
func (s *Server) journalAppend(rec *journal.Record) {
	if rec == nil || s.journal == nil {
		return
	}
	s.jmu.Lock()
	_ = s.journal.Append(*rec)
	s.jmu.Unlock()
}

// compactAfter is how many appended records trigger a compaction at the
// next session retirement. Record-count based (not time based) so the
// journal's on-disk behavior is deterministic for a given run.
const compactAfter = 64

// maybeCompact rewrites the journal down to one record per live session
// (its latest checkpoint, or its submit record) once enough superseded
// records accumulate. A successful compact also clears a sticky journal
// write error: the replacement file proved writable.
func (s *Server) maybeCompact() {
	if s.journal == nil {
		return
	}
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if s.journal.Appended() < compactAfter && s.journal.Err() == nil {
		return
	}
	_ = s.journal.Compact(s.liveRecords())
}

// idRatchetErr marks the synthetic terminal record compaction writes to
// persist the id high-water mark (see liveRecords).
const idRatchetErr = "serve: retired id high-water mark"

// liveRecords lists the minimal record set that recovers the current
// live fleet, in ascending session-id order. When the highest id ever
// issued belongs to a retired session, a terminal record for it rides
// along: without it, compacting away the terminal records would let a
// recovery after a later crash re-issue retired ids, and a stale client
// handle could silently alias a brand-new session.
func (s *Server) liveRecords() []journal.Record {
	s.mu.Lock()
	nextID := s.nextID
	all := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		all = append(all, sess)
	}
	s.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	var keep []journal.Record
	ratchet := journal.Record{Kind: journal.KindTerminal, ID: nextID, State: uint8(StateCanceled), Err: idRatchetErr}
	for _, sess := range all {
		sess.mu.Lock()
		if !sess.state.Terminal() {
			switch {
			case sess.lastCheck != nil:
				keep = append(keep, journal.Record{Kind: journal.KindCheckpoint, ID: sess.id, Snapshot: sess.lastCheck})
			default:
				if spec, err := json.Marshal(sess.spec); err == nil {
					keep = append(keep, journal.Record{Kind: journal.KindSubmit, ID: sess.id, Spec: spec})
				}
			}
		} else if sess.id == nextID {
			// The high-water session is still registered: persist its real
			// terminal record rather than the synthetic marker.
			if r := s.terminalRecord(sess); r != nil {
				ratchet = *r
			}
		}
		sess.mu.Unlock()
	}
	if nextID > 0 && (len(keep) == 0 || keep[len(keep)-1].ID < nextID) {
		keep = append(keep, ratchet)
	}
	return keep
}

// finished retires one live session and wakes Drain when none remain.
func (s *Server) finished(st State) {
	s.rec.Inc(obs.With(obs.MServeFinished, "state", st.String()), 1)
	s.mu.Lock()
	s.active--
	if s.active == 0 {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// lookup fetches a registry entry.
func (s *Server) lookup(id uint64) (*session, error) {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownSession, id)
	}
	return sess, nil
}

// Cancel marks a session for cancelation; it terminates at its next
// dequeue without running further rounds.
func (s *Server) Cancel(id uint64) error {
	sess, err := s.lookup(id)
	if err != nil {
		return err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.state.Terminal() {
		return fmt.Errorf("%w: %d is %s", ErrSessionTerminal, id, sess.state)
	}
	sess.cancel = true
	return nil
}

// Snapshot serializes a live session at its current round boundary (the
// call waits out any in-flight round). The session keeps running; the
// snapshot is a consistent copy, not a detach.
func (s *Server) Snapshot(id uint64) ([]byte, error) {
	sess, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.state.Terminal() {
		return nil, fmt.Errorf("%w: %d is %s", ErrSessionTerminal, id, sess.state)
	}
	drvState, err := sess.drv.Snapshot()
	if err != nil {
		return nil, err
	}
	s.rec.Inc(obs.MServeSnapshots, 1)
	return EncodeSnapshot(&Snapshot{ID: id, State: sess.state, Spec: sess.spec, DriverState: drvState})
}

// Result returns a terminal session's delivered payload and statistics
// (ErrSessionActive while rounds may still run).
func (s *Server) Result(id uint64) ([]byte, *transport.Stats, error) {
	sess, err := s.lookup(id)
	if err != nil {
		return nil, nil, err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if !sess.state.Terminal() {
		return nil, nil, fmt.Errorf("%w: %d is %s", ErrSessionActive, id, sess.state)
	}
	return sess.result, sess.stats, sess.err
}

// Info reads one session's registry entry.
func (s *Server) Info(id uint64) (SessionInfo, error) {
	sess, err := s.lookup(id)
	if err != nil {
		return SessionInfo{}, err
	}
	return s.infoOf(sess), nil
}

func (s *Server) infoOf(sess *session) SessionInfo {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	info := SessionInfo{
		ID:        sess.id,
		State:     sess.state,
		Rounds:    sess.rounds,
		Air:       sess.air,
		RoundAirs: append([]time.Duration(nil), sess.airs...),
		Bytes:     len(sess.result),
		Resumes:   sess.resumes,
	}
	if sess.err != nil {
		info.Err = sess.err.Error()
	}
	return info
}

// Sessions lists every registry entry in ascending id order.
func (s *Server) Sessions() []SessionInfo {
	s.mu.Lock()
	all := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		all = append(all, sess)
	}
	s.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	out := make([]SessionInfo, 0, len(all))
	for _, sess := range all {
		out = append(out, s.infoOf(sess))
	}
	return out
}

// Quiesce blocks until no live session remains, without closing
// admission or stopping the workers — the deterministic "wait for the
// fleet to finish" shared by the CLI tests and the recovery paths
// (replacing wall-clock polling loops that time out under load).
func (s *Server) Quiesce() {
	s.mu.Lock()
	for s.active > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// Health is an operator's liveness/readiness read of the daemon.
type Health struct {
	// Live is the number of non-terminal sessions.
	Live int `json:"live"`
	// Accepting is false once Stop or Drain closed admission.
	Accepting bool `json:"accepting"`
	// Journal is "off" without a journal, "ok" while it is healthy, or
	// the sticky write failure poisoning it.
	Journal string `json:"journal"`
}

// Ready reports whether the daemon should receive traffic: accepting,
// and journaling successfully when configured for durability.
func (h Health) Ready() bool { return h.Accepting && (h.Journal == "ok" || h.Journal == "off") }

// Health reads the daemon's health (the admin API's /healthz body).
func (s *Server) Health() Health {
	s.mu.Lock()
	h := Health{Live: s.active, Accepting: !s.stopped}
	s.mu.Unlock()
	switch {
	case s.journal == nil:
		h.Journal = "off"
	default:
		if err := s.journal.Err(); err != nil {
			h.Journal = err.Error()
		} else {
			h.Journal = "ok"
		}
	}
	return h
}

// Journal returns the server's journal, nil when durability is off (the
// CLI closes it after shutdown).
func (s *Server) Journal() *journal.Journal { return s.journal }

// Remove deletes a terminal session from the registry.
//
//lint:allow RB-U1 the admin API's planned DELETE /sessions/{id} calls it; the tests pin its contract until then
func (s *Server) Remove(id uint64) error {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownSession, id)
	}
	sess.mu.Lock()
	terminal := sess.state.Terminal()
	sess.mu.Unlock()
	if !terminal {
		return fmt.Errorf("%w: %d", ErrSessionActive, id)
	}
	s.mu.Lock()
	delete(s.sessions, id)
	s.mu.Unlock()
	return nil
}

// Drain stops admission, lets every live session run to a terminal state,
// then stops the workers. Safe to call once; returns when the pool is
// idle.
func (s *Server) Drain() {
	s.mu.Lock()
	s.stopped = true
	for s.active > 0 {
		s.cond.Wait()
	}
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if !already {
		close(s.stop)
	}
	s.wg.Wait()
	s.syncJournal()
}

// Stop halts the pool as soon as in-flight rounds finish, leaving
// non-terminal sessions in the registry at round boundaries — exactly the
// state Snapshot serializes, so a stopping daemon can persist and migrate
// its live sessions.
func (s *Server) Stop() {
	s.mu.Lock()
	s.stopped = true
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if !already {
		close(s.stop)
	}
	s.wg.Wait()
	s.syncJournal()
}

// syncJournal flushes outstanding appends on clean shutdown, whatever
// the fsync policy: an orderly stop should never lose records.
func (s *Server) syncJournal() {
	if s.journal == nil {
		return
	}
	s.jmu.Lock()
	_ = s.journal.Sync()
	s.jmu.Unlock()
}
