// Command rainbar-serve is the multi-session transfer daemon: it
// multiplexes many concurrent simulated screen-camera transfers over a
// bounded worker pool, with admission control, snapshot/restore of
// live sessions, and an HTTP admin API.
//
// Usage:
//
//	rainbar-serve -listen ADDR [-max-sessions 1024] [-workers 4]
//	              [-journal DIR] [-fsync always|interval|off] [-recover]
//	rainbar-serve -loadtest [-sessions 32] [-workers 4] [-payload 400]
//	              [-seed 1] [-recovery combine] [-faults "spec;spec"]
//	              [-rounds 8] [-journal DIR] [-fsync POLICY]
//	              [-fsync-sweep] [-perf-json FILE] [-metrics FILE]
//
// Daemon mode (-listen) serves:
//
//	POST /sessions              admit a session (JSON SessionSpec body)
//	GET  /sessions              list all sessions
//	GET  /sessions/{id}         one session's state
//	POST /sessions/{id}/cancel  cancel a live session
//	GET  /sessions/{id}/snapshot  serialize a live session (binary)
//	GET  /sessions/{id}/result  a terminal session's delivered payload
//	POST /restore               re-admit a snapshotted session (binary body)
//	GET  /metrics               Prometheus exposition
//	GET  /healthz               liveness (JSON serve.Health; always 200)
//	GET  /readyz                readiness (same body; 503 unless Ready)
//
// With -journal the daemon appends every admission, checkpoint and
// retirement to DIR/serve.journal under the chosen -fsync policy;
// -recover first rebuilds the pre-crash fleet from that journal
// (checkpointed sessions resume mid-transfer, the rest restart) before
// accepting traffic.
//
// Loadtest mode (-loadtest) runs a synthetic fleet to completion and
// prints the throughput/latency report; -perf-json additionally writes
// a perf snapshot (BENCH_<n>.json schema) with the serve section
// populated. -fsync-sweep reruns the same fleet journaled under each
// fsync policy and records the serve_fsync durability-cost section.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"

	"rainbar/internal/obs"
	"rainbar/internal/perf"
	"rainbar/internal/serve"
	"rainbar/internal/serve/journal"
	"rainbar/internal/serve/loadgen"
)

func main() {
	var (
		listen      = flag.String("listen", "", "serve the HTTP admin API on this address (daemon mode)")
		maxSessions = flag.Int("max-sessions", 1024, "admission bound on concurrently live sessions")
		workers     = flag.Int("workers", 4, "stepping-pool size")
		journalDir  = flag.String("journal", "", "journal session durability records to this directory")
		fsyncFlag   = flag.String("fsync", "interval", "journal fsync policy: always, interval or off")
		recoverFlag = flag.Bool("recover", false, "rebuild the pre-crash fleet from -journal before serving")
		loadtest    = flag.Bool("loadtest", false, "run a synthetic fleet to completion and report throughput")
		sessions    = flag.Int("sessions", 32, "loadtest fleet size")
		payload     = flag.Int("payload", 400, "loadtest per-session payload bytes")
		seed        = flag.Int64("seed", 1, "loadtest base seed")
		recovery    = flag.String("recovery", "combine", "loadtest decode-recovery mode: off, erasures, ladder or combine")
		faultsFlag  = flag.String("faults", "", "loadtest fault specs rotated across the fleet, ';'-separated (e.g. 'drop=0.3;;splice=0.5')")
		rounds      = flag.Int("rounds", 8, "loadtest per-session round bound")
		fsyncSweep  = flag.Bool("fsync-sweep", false, "loadtest: rerun the fleet journaled under every fsync policy (serve_fsync perf section)")
		perfJSON    = flag.String("perf-json", "", "write a perf snapshot with the loadtest's serve section to this file ('-' = stdout)")
		metrics     = flag.String("metrics", "", "write serve metrics after the run ('-' = stdout, *.json = JSON exposition)")
	)
	flag.Parse()
	var err error
	switch {
	case *loadtest:
		err = runLoadtest(loadtestOpts{
			fleet: *sessions, workers: *workers, payload: *payload, rounds: *rounds,
			seed: *seed, recovery: *recovery, faults: *faultsFlag,
			journalDir: *journalDir, fsync: *fsyncFlag, sweep: *fsyncSweep,
			perfJSON: *perfJSON, metrics: *metrics,
		}, os.Stdout)
	case *listen != "":
		err = runDaemon(*listen, *maxSessions, *workers, *journalDir, *fsyncFlag, *recoverFlag)
	default:
		err = fmt.Errorf("pass -listen ADDR (daemon) or -loadtest (harness); see -h")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rainbar-serve:", err)
		os.Exit(1)
	}
}

// loadtestOpts carries the loadtest flag set.
type loadtestOpts struct {
	fleet, workers, payload, rounds int
	seed                            int64
	recovery, faults                string
	journalDir, fsync               string
	sweep                           bool
	perfJSON, metrics               string
}

// runLoadtest drives the loadgen harness and writes the report, the
// optional perf snapshot (with the fsync durability sweep when asked
// for), and the optional metrics exposition.
func runLoadtest(o loadtestOpts, out io.Writer) error {
	var specs []string
	if o.faults != "" {
		specs = strings.Split(o.faults, ";")
	}
	fs, err := journal.ParseFsync(o.fsync)
	if err != nil {
		return err
	}
	rec := obs.NewMemory()
	base := loadgen.Config{
		Fleet:        o.fleet,
		Workers:      o.workers,
		PayloadBytes: o.payload,
		Seed:         o.seed,
		Recovery:     o.recovery,
		FaultSpecs:   specs,
		MaxRounds:    o.rounds,
		Clock:        obs.NewWallClock(),
		Recorder:     rec,
		JournalDir:   o.journalDir,
		Fsync:        fs,
	}
	rep, err := loadgen.Run(base)
	if err != nil {
		return err
	}
	fmt.Fprint(out, rep.Table())
	if o.perfJSON != "" {
		s := perf.Describe()
		s.Serve = serveStats(rep, base)
		if o.sweep {
			s.ServeFsync = make(map[string]*perf.ServeStats)
			for _, policy := range []journal.Fsync{journal.FsyncAlways, journal.FsyncInterval, journal.FsyncOff} {
				dir, err := os.MkdirTemp("", "rainbar-fsync-sweep-")
				if err != nil {
					return err
				}
				cfg := base
				cfg.Recorder = nil // keep the main run's exposition clean
				cfg.JournalDir = dir
				cfg.Fsync = policy
				swept, err := loadgen.Run(cfg)
				os.RemoveAll(dir)
				if err != nil {
					return fmt.Errorf("fsync sweep %s: %w", policy, err)
				}
				s.ServeFsync[policy.String()] = serveStats(swept, cfg)
			}
		}
		if err := writeTo(o.perfJSON, s.WriteJSON); err != nil {
			return err
		}
	}
	if o.metrics != "" {
		write := rec.WritePrometheus
		if strings.HasSuffix(o.metrics, ".json") {
			write = rec.WriteJSON
		}
		if err := writeTo(o.metrics, write); err != nil {
			return err
		}
	}
	return nil
}

// serveStats maps one loadgen report onto the perf-snapshot schema; the
// durability fields are set on journaled runs only.
func serveStats(rep *loadgen.Report, cfg loadgen.Config) *perf.ServeStats {
	s := &perf.ServeStats{
		Fleet:           rep.Fleet,
		Workers:         rep.Workers,
		Completed:       rep.Completed,
		Failed:          rep.Failed,
		Rounds:          rep.Rounds,
		SessionsPerSec:  rep.SessionsPerSec,
		P50RoundSeconds: rep.RoundP50.Seconds(),
		P99RoundSeconds: rep.RoundP99.Seconds(),
		BytesPerSession: rep.BytesPerSession,
	}
	if cfg.JournalDir != "" {
		s.Fsync = cfg.Fsync.String()
		s.JournalRecords = rep.JournalRecords
	}
	return s
}

// writeTo runs write against path, with "-" meaning stdout.
func writeTo(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// newDaemonServer builds the daemon's server — plain, journaled, or
// recovered from a journal — plus the recover report when one ran.
// Split from runDaemon so tests exercise the durability wiring without
// a real listener. The caller owns shutdown: Stop the server, then
// Close its Journal (when non-nil).
func newDaemonServer(journalDir, fsync string, doRecover bool, maxSessions, workers int, rec obs.Recorder) (*serve.Server, *serve.RecoverReport, error) {
	cfg := serve.Config{MaxSessions: maxSessions, Workers: workers, Recorder: rec}
	if journalDir == "" {
		if doRecover {
			return nil, nil, errors.New("-recover requires -journal DIR")
		}
		return serve.NewServer(cfg), nil, nil
	}
	fs, err := journal.ParseFsync(fsync)
	if err != nil {
		return nil, nil, err
	}
	opts := journal.Options{Fsync: fs, Recorder: rec}
	if doRecover {
		return serve.Recover(journalDir, opts, cfg)
	}
	j, err := journal.Open(journalDir, opts)
	if err != nil {
		return nil, nil, err
	}
	cfg.Journal = j
	return serve.NewServer(cfg), nil, nil
}

// runDaemon serves the admin API until the listener fails.
func runDaemon(addr string, maxSessions, workers int, journalDir, fsync string, doRecover bool) error {
	rec := obs.NewMemory()
	srv, rep, err := newDaemonServer(journalDir, fsync, doRecover, maxSessions, workers, rec)
	if err != nil {
		return err
	}
	defer func() {
		srv.Stop()
		if j := srv.Journal(); j != nil {
			j.Close()
		}
	}()
	if rep != nil {
		fmt.Printf("rainbar-serve: recovered %d sessions (%d checkpointed, %d resubmitted, %d skipped)\n",
			len(rep.Sessions), rep.Checkpointed, rep.Resubmitted, rep.Skipped)
	}
	if journalDir != "" {
		fmt.Printf("rainbar-serve: journaling to %s (fsync=%s)\n", journalDir, fsync)
	}
	fmt.Printf("rainbar-serve: listening on %s (max %d sessions, %d workers)\n", addr, maxSessions, workers)
	return http.ListenAndServe(addr, adminMux(srv, rec))
}

// adminMux routes the admin API onto a server. Split from runDaemon so
// tests drive it through httptest without a real listener.
func adminMux(srv *serve.Server, rec *obs.Memory) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness: answering at all means live; the body carries the
		// operator detail (live sessions, admission, journal health).
		writeJSON(w, srv.Health())
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// Readiness: load balancers route on the status code, so a
		// draining daemon or one with a poisoned journal turns 503
		// while /healthz stays 200.
		h := srv.Health()
		w.Header().Set("Content-Type", "application/json")
		if !h.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(h)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if err := rec.WritePrometheus(w); err != nil {
			httpErr(w, err)
		}
	})
	mux.HandleFunc("POST /sessions", func(w http.ResponseWriter, r *http.Request) {
		var spec serve.SessionSpec
		if err := json.NewDecoder(io.LimitReader(r.Body, maxBody)).Decode(&spec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		id, err := srv.Submit(spec)
		if err != nil {
			httpErr(w, err)
			return
		}
		writeJSON(w, map[string]uint64{"id": id})
	})
	mux.HandleFunc("GET /sessions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, srv.Sessions())
	})
	mux.HandleFunc("GET /sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		withID(w, r, func(id uint64) {
			info, err := srv.Info(id)
			if err != nil {
				httpErr(w, err)
				return
			}
			writeJSON(w, info)
		})
	})
	mux.HandleFunc("POST /sessions/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		withID(w, r, func(id uint64) {
			if err := srv.Cancel(id); err != nil {
				httpErr(w, err)
				return
			}
			writeJSON(w, map[string]bool{"canceled": true})
		})
	})
	mux.HandleFunc("GET /sessions/{id}/snapshot", func(w http.ResponseWriter, r *http.Request) {
		withID(w, r, func(id uint64) {
			snap, err := srv.Snapshot(id)
			if err != nil {
				httpErr(w, err)
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(snap)
		})
	})
	mux.HandleFunc("GET /sessions/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		withID(w, r, func(id uint64) {
			payload, _, err := srv.Result(id)
			if err != nil {
				httpErr(w, err)
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(payload)
		})
	})
	mux.HandleFunc("POST /restore", func(w http.ResponseWriter, r *http.Request) {
		snap, err := io.ReadAll(io.LimitReader(r.Body, maxBody))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		id, err := srv.Restore(snap)
		if err != nil {
			httpErr(w, err)
			return
		}
		writeJSON(w, map[string]uint64{"id": id})
	})
	return mux
}

// maxBody bounds admin request bodies (payloads are capped far lower by
// the serve spec admission checks; this only stops runaway uploads).
const maxBody = 64 << 20

// httpErr maps serve sentinels onto HTTP statuses.
func httpErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, serve.ErrUnknownSession):
		status = http.StatusNotFound
	case errors.Is(err, serve.ErrOverloaded):
		status = http.StatusServiceUnavailable
	case errors.Is(err, serve.ErrStopped):
		status = http.StatusServiceUnavailable
	case errors.Is(err, serve.ErrSessionTerminal), errors.Is(err, serve.ErrSessionActive), errors.Is(err, serve.ErrCanceled):
		status = http.StatusConflict
	case errors.Is(err, serve.ErrBadSpec), errors.Is(err, serve.ErrBadSnapshot), errors.Is(err, serve.ErrSnapshotVersion), errors.Is(err, serve.ErrSnapshotChecksum):
		status = http.StatusBadRequest
	}
	http.Error(w, err.Error(), status)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// withID parses the {id} path value and hands it to fn.
func withID(w http.ResponseWriter, r *http.Request, fn func(uint64)) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad session id", http.StatusBadRequest)
		return
	}
	fn(id)
}
