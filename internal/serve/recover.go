package serve

import (
	"encoding/json"
	"errors"
	"fmt"

	"rainbar/internal/obs"
	"rainbar/internal/serve/journal"
)

// RecoverReport summarizes what one Recover rebuilt.
type RecoverReport struct {
	// Sessions lists the recovered session ids. Recovery preserves
	// identity: a session keeps its pre-crash id, so handles held by
	// clients stay valid across a crash+recover cycle.
	Sessions []uint64
	// Checkpointed counts sessions resumed mid-transfer from their
	// latest checkpoint.
	Checkpointed int
	// Resubmitted counts sessions restarted from round zero (admitted
	// but never checkpointed before the crash — round outcomes are pure
	// functions of (spec, round), so a restart delivers the same bytes).
	Resubmitted int
	// Skipped counts journaled live sessions that failed re-admission
	// (corrupt embedded state, or the new server's MaxSessions bound).
	Skipped int
}

// Recover opens the journal in dir, folds its records into the set of
// sessions that were live at the crash, and starts a server (configured
// by cfg, which must not carry its own Journal) with each of them
// re-admitted under its pre-crash id: from its latest checkpoint when
// one exists, from its spec otherwise. Because every checkpoint sits on
// a round boundary and the link for round r is reseeded purely from
// (spec, r), the recovered fleet delivers payloads bit-identical to an
// uncrashed run.
//
// Sessions with a terminal record are not resurrected. A torn or
// corrupt journal tail was already truncated by journal.Open — the
// sessions whose last records it held simply recover from one
// checkpoint earlier. Before any session runs, the journal is compacted
// to exactly the live set (one record per session), so replaying it
// again after a second crash folds to the same fleet; the rewrite is an
// atomic rename, so a crash during Recover leaves the previous journal
// in force.
func Recover(dir string, opts journal.Options, cfg Config) (*Server, *RecoverReport, error) {
	if cfg.Journal != nil {
		return nil, nil, errors.New("serve: Recover opens its own journal; Config.Journal must be nil")
	}
	j, err := journal.Open(dir, opts)
	if err != nil {
		return nil, nil, err
	}

	// Fold per-session: last checkpoint wins, a terminal record trumps
	// everything. First-appearance order keeps recovery deterministic.
	type folded struct {
		id       uint64
		spec     []byte
		check    []byte
		terminal bool
		state    uint8
		errText  string
	}
	byID := make(map[uint64]*folded)
	var order []*folded
	var maxID uint64
	for _, rec := range j.Records() {
		if rec.ID > maxID {
			maxID = rec.ID
		}
		f := byID[rec.ID]
		if f == nil {
			f = &folded{id: rec.ID}
			byID[rec.ID] = f
			order = append(order, f)
		}
		switch rec.Kind {
		case journal.KindSubmit:
			f.spec = rec.Spec
		case journal.KindCheckpoint:
			f.check = rec.Snapshot
		case journal.KindTerminal:
			f.terminal = true
			f.state = rec.State
			f.errText = rec.Err
		}
	}

	live := make([]journal.Record, 0, len(order))
	liveMax := uint64(0)
	for _, f := range order {
		switch {
		case f.terminal:
			continue
		case f.check != nil:
			live = append(live, journal.Record{Kind: journal.KindCheckpoint, ID: f.id, Snapshot: f.check})
		case f.spec != nil:
			live = append(live, journal.Record{Kind: journal.KindSubmit, ID: f.id, Spec: f.spec})
		default:
			continue
		}
		if f.id > liveMax {
			liveMax = f.id
		}
	}
	if maxID > liveMax {
		// Persist the id high-water mark through the compaction: the
		// highest journaled id is retired, and without its terminal record
		// a recovery after a second crash would re-issue retired ids,
		// letting stale client handles alias new sessions.
		if f := byID[maxID]; f != nil && f.terminal {
			live = append(live, journal.Record{Kind: journal.KindTerminal, ID: maxID, State: f.state, Err: f.errText})
		} else if maxID > 0 {
			live = append(live, journal.Record{Kind: journal.KindTerminal, ID: maxID, State: uint8(StateCanceled), Err: idRatchetErr})
		}
	}
	if err := j.Compact(live); err != nil {
		j.Close()
		return nil, nil, fmt.Errorf("serve: recover: %w", err)
	}

	cfg.Journal = j
	s := NewServer(cfg)
	// Never reuse any journaled id — not even a retired one — so a
	// pre-crash handle can go stale but can never alias a new session.
	s.mu.Lock()
	s.nextID = maxID
	s.mu.Unlock()

	rep := &RecoverReport{}
	for _, rec := range live {
		if rec.Kind == journal.KindTerminal {
			continue // the id high-water record; nothing to run
		}
		if len(rep.Sessions) >= s.cfg.MaxSessions {
			// Capacity is counted against the journaled fleet, not the
			// sessions still active: recovered sessions run as soon as
			// they are admitted, and one that finishes early must not
			// make room for another, or the report would vary by run.
			rep.Skipped++
			continue
		}
		id, err := s.readmit(rec)
		if err != nil {
			// One damaged session must not take the rest of the fleet
			// down with it; the operator sees the gap in the report.
			rep.Skipped++
			continue
		}
		if rec.Kind == journal.KindCheckpoint {
			rep.Checkpointed++
		} else {
			rep.Resubmitted++
		}
		rep.Sessions = append(rep.Sessions, id)
		s.rec.Inc(obs.MServeReplays, 1)
	}
	return s, rep, nil
}

// readmit rebuilds one journaled live session under its pre-crash id.
func (s *Server) readmit(rec journal.Record) (uint64, error) {
	if rec.Kind == journal.KindCheckpoint {
		snap, err := DecodeSnapshot(rec.Snapshot)
		if err != nil {
			return 0, err
		}
		if snap.State.Terminal() {
			return 0, fmt.Errorf("%w: checkpoint of %s session", ErrSessionTerminal, snap.State)
		}
		drv, err := s.factory.Restore(snap.Spec, snap.DriverState)
		if err != nil {
			return 0, err
		}
		return s.admitAs(snap.Spec, drv, obs.MServeRestored, snap, rec.ID)
	}
	var spec SessionSpec
	if err := json.Unmarshal(rec.Spec, &spec); err != nil {
		return 0, err
	}
	drv, err := s.factory.New(spec)
	if err != nil {
		return 0, err
	}
	return s.admitAs(spec, drv, obs.MServeSubmitted, nil, rec.ID)
}
