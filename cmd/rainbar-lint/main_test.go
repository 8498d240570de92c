package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module with one contract package.
func writeModule(t *testing.T, body string) string {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module m\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "internal", "faults")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "faults.go"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

func runLint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = realMain(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitCleanIsZero(t *testing.T) {
	root := writeModule(t, `package faults

import "math/rand"

// NewRNG returns a locally seeded generator.
func NewRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
`)
	code, stdout, stderr := runLint(t, "-dir", root, "./...")
	if code != 0 {
		t.Fatalf("exit = %d (stdout %q, stderr %q), want 0", code, stdout, stderr)
	}
	if stdout != "" {
		t.Fatalf("clean run should print nothing, got %q", stdout)
	}
}

func TestExitFindingsIsOne(t *testing.T) {
	root := writeModule(t, `package faults

import "math/rand"

// Roll draws from the process-global generator: a determinism breach.
func Roll() int { return rand.Intn(6) }
`)
	code, stdout, _ := runLint(t, "-dir", root, "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stdout %q)", code, stdout)
	}
	if !strings.Contains(stdout, "RB-D2") || !strings.Contains(stdout, "faults.go:6") {
		t.Fatalf("diagnostic missing rule ID or position: %q", stdout)
	}
	if !strings.Contains(stdout, "1 finding(s)") {
		t.Fatalf("missing summary line: %q", stdout)
	}
}

func TestExitLoadErrorIsTwo(t *testing.T) {
	root := writeModule(t, "package faults\n\nfunc broken( {\n")
	code, _, stderr := runLint(t, "-dir", root)
	if code != 2 {
		t.Fatalf("exit = %d, want 2 (stderr %q)", code, stderr)
	}
	if stderr == "" {
		t.Fatal("load error should be reported on stderr")
	}
}

func TestExitTypeErrorIsTwo(t *testing.T) {
	root := writeModule(t, "package faults\n\nvar X undefinedType\n")
	code, _, stderr := runLint(t, "-dir", root)
	if code != 2 {
		t.Fatalf("exit = %d, want 2 (stderr %q)", code, stderr)
	}
}

func TestExitBadUsageIsTwo(t *testing.T) {
	if code, _, _ := runLint(t, "./internal/..."); code != 2 {
		t.Fatalf("unsupported pattern: exit = %d, want 2", code)
	}
	if code, _, _ := runLint(t, "-dir", filepath.Join(os.TempDir(), "definitely-not-a-module")); code != 2 {
		t.Fatalf("missing module: exit = %d, want 2", code)
	}
}

// TestRelativePositions pins that diagnostics are module-root relative so
// CI output is stable across checkouts.
func TestRelativePositions(t *testing.T) {
	root := writeModule(t, `package faults

import "time"

// Stamp reads the wall clock inside a contract package.
func Stamp() time.Time { return time.Now() }
`)
	code, stdout, _ := runLint(t, "-dir", root)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stdout %q)", code, stdout)
	}
	wantPrefix := filepath.Join("internal", "faults", "faults.go") + ":"
	if !strings.HasPrefix(stdout, wantPrefix) {
		t.Fatalf("diagnostic not module-relative: %q (want prefix %q)", stdout, wantPrefix)
	}
}

// writeTree lays out a throwaway module from a path->contents map.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module m\n\ngo 1.22\n"
	for rel, body := range files {
		full := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestJSONMode(t *testing.T) {
	root := writeModule(t, `package faults

import "math/rand"

func Roll() int { return rand.Intn(6) }
`)
	code, stdout, _ := runLint(t, "-dir", root, "-json")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stdout %q)", code, stdout)
	}
	var findings []struct {
		Rule string
		Msg  string
	}
	if err := json.Unmarshal([]byte(stdout), &findings); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, stdout)
	}
	if len(findings) != 1 || findings[0].Rule != "RB-D2" {
		t.Fatalf("findings = %+v, want one RB-D2", findings)
	}

	clean := writeModule(t, `package faults

func Six() int { return 6 }
`)
	code, stdout, _ = runLint(t, "-dir", clean, "-json")
	if code != 0 || strings.TrimSpace(stdout) != "[]" {
		t.Fatalf("clean -json run: exit %d output %q, want 0 and []", code, stdout)
	}
}

func TestGraphMode(t *testing.T) {
	root := writeModule(t, `package faults

func Outer() int { return inner() }

func inner() int { return 1 }
`)
	code, first, stderr := runLint(t, "-dir", root, "-graph")
	if code != 0 {
		t.Fatalf("exit = %d (stderr %q), want 0", code, stderr)
	}
	for _, want := range []string{
		"node m/internal/faults.Outer",
		"-> m/internal/faults.inner kind=static",
	} {
		if !strings.Contains(first, want) {
			t.Fatalf("graph dump missing %q:\n%s", want, first)
		}
	}
	if _, second, _ := runLint(t, "-dir", root, "-graph"); second != first {
		t.Error("-graph output differs between runs of the same tree")
	}
}

func TestAnnotationsAudit(t *testing.T) {
	root := writeModule(t, `package faults

import "time"

func Stamp() int64 {
	//lint:allow RB-D1 stopwatch telemetry only, never a decode decision
	return time.Now().UnixNano()
}
`)
	code, stdout, _ := runLint(t, "-dir", root, "-annotations")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (stdout %q)", code, stdout)
	}
	if !strings.Contains(stdout, "//lint:allow RB-D1") ||
		!strings.Contains(stdout, "stopwatch telemetry only") ||
		!strings.Contains(stdout, "1 annotation(s), 0 stale rule ID(s)") {
		t.Fatalf("audit output incomplete:\n%s", stdout)
	}
}

func TestAnnotationsAuditStaleRuleFails(t *testing.T) {
	root := writeModule(t, `package faults

func Six() int {
	//lint:allow RB-D9 suppresses a rule that was removed long ago
	return 6
}
`)
	code, stdout, _ := runLint(t, "-dir", root, "-annotations")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stdout %q)", code, stdout)
	}
	if !strings.Contains(stdout, "stale rule ID RB-D9") {
		t.Fatalf("missing stale diagnostic:\n%s", stdout)
	}
}

// snapshotModule is a miniature of the real serve/transport snapshot pair,
// complete under RB-S1.
func snapshotModule() map[string]string {
	return map[string]string{
		"internal/transport/state.go": `package transport

type XferState struct {
	Round     int
	Rate      float64
	Collector CollectorState
	Combiner  CombinerState
	Stats     Stats
}

type CollectorState struct{ Total int }

type CombinerState struct{ Chunks []CombinerChunk }

type CombinerChunk struct{ Index int }

type Stats struct{ Frames int }
`,
		"internal/serve/snapshot.go": `package serve

import "m/internal/transport"

type Snapshot struct {
	ID    string
	State transport.XferState
}

func EncodeSnapshot(s *Snapshot) []byte {
	b := append([]byte(nil), s.ID...)
	return encodeXferState(b, &s.State)
}

func DecodeSnapshot(b []byte) *Snapshot {
	s := &Snapshot{ID: "x"}
	decodeXferState(b, &s.State)
	return s
}

func encodeXferState(b []byte, s *transport.XferState) []byte {
	b = appendInt(b, s.Round)
	b = appendInt(b, int(s.Rate))
	b = appendInt(b, s.Collector.Total)
	for _, c := range s.Combiner.Chunks {
		b = appendInt(b, c.Index)
	}
	return appendInt(b, s.Stats.Frames)
}

func decodeXferState(b []byte, s *transport.XferState) {
	s.Round = readInt(b)
	s.Rate = float64(readInt(b))
	s.Collector.Total = readInt(b)
	s.Combiner.Chunks = []transport.CombinerChunk{{Index: readInt(b)}}
	s.Stats.Frames = readInt(b)
}

func appendInt(b []byte, v int) []byte { return append(b, byte(v)) }

func readInt(b []byte) int {
	if len(b) == 0 {
		return 0
	}
	return int(b[0])
}
`,
		// A miniature of the durability journal's record framing. The
		// package path folds to the "serve" contract key, which is how the
		// real config addresses it ("serve.Record" / "serve.encodeFrame").
		"internal/serve/journal/journal.go": `package journal

type Record struct {
	Kind     byte
	ID       uint64
	Spec     []byte
	Snapshot []byte
	State    byte
	Err      string
}

func encodeFrame(rec Record) []byte {
	b := []byte{rec.Kind, byte(rec.ID), rec.State}
	b = append(b, rec.Spec...)
	b = append(b, rec.Snapshot...)
	return append(b, rec.Err...)
}

func decodeFrame(b []byte) Record {
	return Record{
		Kind:     b[0],
		ID:       uint64(b[1]),
		State:    b[2],
		Spec:     b[3:4],
		Snapshot: b[4:5],
		Err:      string(b[5:]),
	}
}

var _ = decodeFrame(encodeFrame(Record{}))
`,
	}
}

// TestSnapshotCompletenessGate is the RB-S1 acceptance demonstration: the
// complete miniature module is clean; deleting one field's encode line
// makes the gate fail at that field's declaration.
func TestSnapshotCompletenessGate(t *testing.T) {
	root := writeTree(t, snapshotModule())
	if code, stdout, stderr := runLint(t, "-dir", root); code != 0 {
		t.Fatalf("complete snapshot module: exit %d (stdout %q, stderr %q), want 0", code, stdout, stderr)
	}

	broken := snapshotModule()
	broken["internal/serve/snapshot.go"] = strings.Replace(
		broken["internal/serve/snapshot.go"],
		"\tb = appendInt(b, int(s.Rate))\n", "", 1)
	root = writeTree(t, broken)
	code, stdout, _ := runLint(t, "-dir", root)
	if code != 1 {
		t.Fatalf("encode line deleted: exit = %d, want 1 (stdout %q)", code, stdout)
	}
	if !strings.Contains(stdout, "RB-S1") ||
		!strings.Contains(stdout, "XferState.Rate is never written by the encode path") ||
		!strings.Contains(stdout, filepath.Join("internal", "transport", "state.go")) {
		t.Fatalf("RB-S1 diagnostic wrong:\n%s", stdout)
	}

	// The journal frame codec is under the same contract: a Record field
	// the decoder stops reading would silently vanish from every crash
	// recovery.
	torn := snapshotModule()
	torn["internal/serve/journal/journal.go"] = strings.Replace(
		torn["internal/serve/journal/journal.go"],
		"\t\tErr:      string(b[5:]),\n", "", 1)
	root = writeTree(t, torn)
	code, stdout, _ = runLint(t, "-dir", root)
	if code != 1 {
		t.Fatalf("journal decode line deleted: exit = %d, want 1 (stdout %q)", code, stdout)
	}
	if !strings.Contains(stdout, "RB-S1") ||
		!strings.Contains(stdout, "Record.Err is never read by the decode path") {
		t.Fatalf("journal RB-S1 diagnostic wrong:\n%s", stdout)
	}
}

// TestUnreachedGate is the RB-U1 demonstration: a helper main calls is
// clean; deleting main's only call makes the gate fail and name it.
func TestUnreachedGate(t *testing.T) {
	program := func(body string) map[string]string {
		return map[string]string{"cmd/tool/main.go": "package main\n\nfunc main() {" + body + "}\n\nfunc helper() {}\n"}
	}
	root := writeTree(t, program(" helper() "))
	if code, stdout, stderr := runLint(t, "-dir", root); code != 0 {
		t.Fatalf("helper called: exit %d (stdout %q, stderr %q), want 0", code, stdout, stderr)
	}

	root = writeTree(t, program(""))
	code, stdout, _ := runLint(t, "-dir", root)
	if code != 1 {
		t.Fatalf("call deleted: exit = %d, want 1 (stdout %q)", code, stdout)
	}
	if !strings.Contains(stdout, "RB-U1") || !strings.Contains(stdout, "m/cmd/tool.helper is reached by no entry point") {
		t.Fatalf("RB-U1 diagnostic wrong:\n%s", stdout)
	}
}
