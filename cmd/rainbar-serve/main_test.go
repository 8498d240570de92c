package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rainbar/internal/obs"
	"rainbar/internal/perf"
	"rainbar/internal/serve"
)

// TestLoadtestWritesPerfSnapshot runs the harness end to end through the
// CLI path and checks the BENCH-schema snapshot has its serve section
// populated.
func TestLoadtestWritesPerfSnapshot(t *testing.T) {
	dir := t.TempDir()
	perfPath := filepath.Join(dir, "bench.json")
	metricsPath := filepath.Join(dir, "metrics.json")
	var report bytes.Buffer
	err := runLoadtest(loadtestOpts{
		fleet: 4, workers: 2, payload: 300, rounds: 6, seed: 7,
		recovery: "combine", faults: "drop=0.5;", fsync: "interval",
		perfJSON: perfPath, metrics: metricsPath,
	}, &report)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(report.String(), "rainbar-serve loadtest\n") {
		t.Fatalf("unexpected report:\n%s", report.String())
	}

	f, err := os.Open(perfPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := readSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Schema != perf.Schema {
		t.Fatalf("schema = %q", snap.Schema)
	}
	if snap.Serve == nil {
		t.Fatal("serve section missing from perf snapshot")
	}
	if snap.Serve.Fleet != 4 || snap.Serve.Completed == 0 {
		t.Fatalf("degenerate serve stats: %+v", snap.Serve)
	}
	if snap.Serve.SessionsPerSec <= 0 || snap.Serve.P99RoundSeconds <= 0 {
		t.Fatalf("throughput/latency unpopulated: %+v", snap.Serve)
	}

	blob, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), obs.MServeSubmitted) {
		t.Fatalf("metrics exposition missing serve counters:\n%s", blob)
	}
}

// TestAdminAPI drives the HTTP surface against an in-process daemon.
func TestAdminAPI(t *testing.T) {
	rec := obs.NewMemory()
	srv := serve.NewServer(serve.Config{MaxSessions: 8, Workers: 2, Recorder: rec})
	defer srv.Stop()
	ts := httptest.NewServer(adminMux(srv, rec))
	defer ts.Close()

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	if resp, body := get("/healthz"); resp.StatusCode != 200 {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	} else {
		var h serve.Health
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatalf("healthz body is not health JSON: %v\n%s", err, body)
		}
		if !h.Accepting || h.Journal != "off" {
			t.Fatalf("healthz of a fresh journal-less daemon: %+v", h)
		}
	}
	if resp, _ := get("/readyz"); resp.StatusCode != 200 {
		t.Fatalf("readyz while accepting: %d", resp.StatusCode)
	}
	if resp, _ := get("/sessions/42"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session: %d", resp.StatusCode)
	}
	resp, err := http.Post(ts.URL+"/sessions", "application/json", strings.NewReader("{bad json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec body: %d", resp.StatusCode)
	}

	// A lossy multi-round session, so it is reliably live for a snapshot.
	spec := serve.SessionSpec{
		Payload: []byte(strings.Repeat("rainbar admin api ", 25)),
		ScreenW: 400, ScreenH: 192, Block: 8,
		Faults:   "drop=0.6,seed=11",
		Recovery: "combine",
	}
	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/sessions", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	var admitted struct{ ID uint64 }
	if err := json.NewDecoder(resp.Body).Decode(&admitted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if admitted.ID == 0 {
		t.Fatal("no session id returned")
	}

	// Snapshot while live, then restore as a second session. The transfer
	// may already be terminal on slow machines; only the happy path is
	// asserted when we do catch it live.
	if resp, snap := get(snapPath(admitted.ID)); resp.StatusCode == 200 {
		resp2, err := http.Post(ts.URL+"/restore", "application/octet-stream", bytes.NewReader(snap))
		if err != nil {
			t.Fatal(err)
		}
		var restored struct{ ID uint64 }
		if err := json.NewDecoder(resp2.Body).Decode(&restored); err != nil {
			t.Fatal(err)
		}
		resp2.Body.Close()
		if resp2.StatusCode != 200 || restored.ID == admitted.ID || restored.ID == 0 {
			t.Fatalf("restore: %d id=%d", resp2.StatusCode, restored.ID)
		}
	}

	// Wait for every session to finish, then read results over HTTP.
	srv.Quiesce()
	resp, body := get("/sessions/" + jsonID(admitted.ID) + "/result")
	if resp.StatusCode != 200 {
		t.Fatalf("result: %d %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, spec.Payload) {
		t.Fatal("payload not bit-exact over the admin API")
	}
	var infos []serve.SessionInfo
	if resp, body := get("/sessions"); resp.StatusCode != 200 || json.Unmarshal(body, &infos) != nil || len(infos) == 0 {
		t.Fatalf("session list: %d %s", resp.StatusCode, body)
	}
	if resp, body := get("/metrics"); resp.StatusCode != 200 || !strings.Contains(string(body), obs.MServeSubmitted) {
		t.Fatalf("metrics: %d\n%s", resp.StatusCode, body)
	}
	if resp, _ := get(snapPath(admitted.ID)); resp.StatusCode != http.StatusConflict {
		t.Fatalf("snapshot of terminal session: %d", resp.StatusCode)
	}
}

// TestAdminAPIRejectsUnboundedCameraRate: at 2e9 fps the capture period
// truncates to zero and a round never ends, so the spec must be refused at
// submit with 400. The factory is checked first and no server is started
// until it refuses the spec, so a regression fails fast instead of hanging
// on a wedged worker.
func TestAdminAPIRejectsUnboundedCameraRate(t *testing.T) {
	spec := serve.SessionSpec{Payload: []byte("rainbar camera rate"), CamRateFPS: 2e9}
	if _, err := serve.DefaultFactory(nil).New(spec); !errors.Is(err, serve.ErrBadSpec) {
		t.Fatalf("DefaultFactory.New error %v, want serve.ErrBadSpec", err)
	}
	rec := obs.NewMemory()
	srv := serve.NewServer(serve.Config{MaxSessions: 2, Workers: 1, Recorder: rec})
	defer srv.Stop()
	ts := httptest.NewServer(adminMux(srv, rec))
	defer ts.Close()
	if _, err := srv.Submit(spec); !errors.Is(err, serve.ErrBadSpec) {
		t.Fatalf("Submit error %v, want serve.ErrBadSpec", err)
	}
	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/sessions", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST /sessions answered %d, want 400", resp.StatusCode)
	}
}

// TestAdminAPIRejectsBadSpecs: a spec that describes no valid transfer is
// the client's fault, so Submit wraps serve.ErrBadSpec and the admin API
// answers 400, while a valid spec next to them still delivers bit-exact.
func TestAdminAPIRejectsBadSpecs(t *testing.T) {
	rec := obs.NewMemory()
	srv := serve.NewServer(serve.Config{MaxSessions: 8, Workers: 2, Recorder: rec})
	defer srv.Stop()
	ts := httptest.NewServer(adminMux(srv, rec))
	defer ts.Close()

	post := func(spec serve.SessionSpec) (int, []byte) {
		t.Helper()
		blob, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/sessions", "application/json", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	payload := []byte("rainbar bad spec")
	for _, tc := range []struct {
		name string
		spec serve.SessionSpec
	}{
		{"block 1", serve.SessionSpec{Payload: payload, ScreenW: 480, ScreenH: 270, Block: 1}},
		{"screen 8192x4608", serve.SessionSpec{Payload: payload, ScreenW: 8192, ScreenH: 4608, Block: 13}},
		{"recovery bogus", serve.SessionSpec{Payload: payload, Recovery: "bogus"}},
		{"malformed faults", serve.SessionSpec{Payload: payload, Faults: "drop=lots"}},
		{"MaxRounds -1", serve.SessionSpec{Payload: payload, MaxRounds: -1}},
		{"DisplayRate 300", serve.SessionSpec{Payload: payload, DisplayRate: 300}},
		{"empty payload", serve.SessionSpec{}},
	} {
		if _, err := srv.Submit(tc.spec); !errors.Is(err, serve.ErrBadSpec) {
			t.Errorf("%s: Submit error %v, want serve.ErrBadSpec", tc.name, err)
		}
		if status, body := post(tc.spec); status != http.StatusBadRequest {
			t.Errorf("%s: POST /sessions answered %d %q, want 400", tc.name, status, body)
		}
	}

	status, body := post(serve.SessionSpec{Payload: payload, MaxRounds: 8})
	if status != http.StatusOK {
		t.Fatalf("valid spec: %d %q", status, body)
	}
	var admitted struct{ ID uint64 }
	if err := json.Unmarshal(body, &admitted); err != nil {
		t.Fatal(err)
	}
	srv.Quiesce()
	resp, err := http.Get(ts.URL + "/sessions/" + jsonID(admitted.ID) + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got bytes.Buffer
	got.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("valid spec result: %d %q, want %q", resp.StatusCode, got.Bytes(), payload)
	}
}

// TestReadyzTracksAdmission: /readyz flips to 503 once the daemon stops
// accepting sessions, while /healthz keeps answering 200 (liveness).
func TestReadyzTracksAdmission(t *testing.T) {
	rec := obs.NewMemory()
	srv := serve.NewServer(serve.Config{MaxSessions: 2, Workers: 1, Recorder: rec})
	ts := httptest.NewServer(adminMux(srv, rec))
	defer ts.Close()

	srv.Drain() // closes admission
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var h serve.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h.Accepting {
		t.Fatalf("readyz after Drain: %d %+v, want 503 not-accepting", resp.StatusCode, h)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz must stay 200 on a draining daemon: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
}

// TestDaemonJournalRecover drives the -journal/-recover wiring the way
// runDaemon does: run a journaled daemon, kill it, recover into a new
// one, and check the journaled history still governs id issuance.
func TestDaemonJournalRecover(t *testing.T) {
	dir := t.TempDir()
	srv, rep, err := newDaemonServer(dir, "always", false, 8, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		t.Fatalf("plain journaled start produced a recover report: %+v", rep)
	}
	id, err := srv.Submit(serve.SessionSpec{Payload: []byte("daemon durability"), MaxRounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv.Quiesce()
	srv.Stop()
	srv.Journal().Close()

	srv2, rep2, err := newDaemonServer(dir, "interval", true, 8, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv2.Stop()
		srv2.Journal().Close()
	}()
	if rep2 == nil {
		t.Fatal("recover produced no report")
	}
	if len(rep2.Sessions) != 0 || rep2.Skipped != 0 {
		t.Fatalf("terminal session resurrected or skipped: %+v", rep2)
	}
	if h := srv2.Health(); h.Journal != "ok" {
		t.Fatalf("recovered daemon journal health %q, want ok", h.Journal)
	}
	// The retired id must not be reissued after the crash.
	id2, err := srv2.Submit(serve.SessionSpec{Payload: []byte("fresh"), MaxRounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if id2 <= id {
		t.Fatalf("post-recovery id %d aliases journaled id %d", id2, id)
	}
	srv2.Quiesce()
}

// TestDaemonRecoverRequiresJournal: -recover without -journal is a
// usage error, not a silent fresh start.
func TestDaemonRecoverRequiresJournal(t *testing.T) {
	if _, _, err := newDaemonServer("", "interval", true, 8, 2, nil); err == nil {
		t.Fatal("recover without a journal dir was accepted")
	}
	if _, _, err := newDaemonServer(t.TempDir(), "sometimes", false, 8, 2, nil); err == nil {
		t.Fatal("bad fsync policy was accepted")
	}
}

// TestLoadtestFsyncSweep: the sweep writes one serve_fsync entry per
// policy, each a completed journaled run.
func TestLoadtestFsyncSweep(t *testing.T) {
	perfPath := filepath.Join(t.TempDir(), "sweep.json")
	var report bytes.Buffer
	err := runLoadtest(loadtestOpts{
		fleet: 2, workers: 2, payload: 300, rounds: 6, seed: 7,
		recovery: "combine", fsync: "interval", sweep: true,
		perfJSON: perfPath,
	}, &report)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(perfPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := readSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.ServeFsync) != 3 {
		t.Fatalf("serve_fsync has %d entries, want always/interval/off: %+v", len(snap.ServeFsync), snap.ServeFsync)
	}
	for _, policy := range []string{"always", "interval", "off"} {
		s := snap.ServeFsync[policy]
		if s == nil {
			t.Fatalf("serve_fsync missing %q", policy)
		}
		if s.Completed == 0 || s.JournalRecords < 2*s.Fleet || s.Fsync != policy {
			t.Fatalf("degenerate %q sweep entry: %+v", policy, s)
		}
	}
	// The main (journal-less) run must not carry durability fields.
	if snap.Serve == nil || snap.Serve.Fsync != "" || snap.Serve.JournalRecords != 0 {
		t.Fatalf("journal-less main run grew durability fields: %+v", snap.Serve)
	}
}

func snapPath(id uint64) string { return "/sessions/" + jsonID(id) + "/snapshot" }

func jsonID(id uint64) string {
	b, _ := json.Marshal(id)
	return string(b)
}

// readSnapshot parses a perf snapshot written by Snapshot.WriteJSON.
func readSnapshot(r io.Reader) (*perf.Snapshot, error) {
	var s perf.Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("read perf snapshot: %w", err)
	}
	return &s, nil
}
