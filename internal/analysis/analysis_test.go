package analysis

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// wantRe matches expected-diagnostic comments in fixture files:
// // want "regexp" `regexp` ...
var wantRe = regexp.MustCompile("// want ((?:(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)\\s*)+)")

var wantArgRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
}

// fixtureExpectations parses every // want comment in the package.
func fixtureExpectations(t *testing.T, pkg *Package) []expectation {
	t.Helper()
	var out []expectation
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, q := range wantArgRe.FindAllString(m[1], -1) {
					pattern := q[1 : len(q)-1]
					if q[0] == '"' {
						unq, err := strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, q, err)
						}
						pattern = unq
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pattern, err)
					}
					out = append(out, expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out
}

// runFixture loads testdata/src/<name> (sub-packages included), runs the
// full suite — per-package and whole-module rules — with the fixture marked
// as a contract+decode package (unless contract is false), and checks
// findings against the // want comments: every want must match a finding on
// its line, and every finding must be wanted. conf, when non-nil, adjusts
// the config (lock roots, snapshot contracts, ...) before the run.
func runFixture(t *testing.T, name string, contract bool, conf func(*Config)) {
	t.Helper()
	pkgs, err := LoadDirAll(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	cfg := Config{
		ContractRoots: map[string]bool{},
		DecodeRoots:   map[string]bool{name: true},
		PoolPairs:     map[string]string{"GetFloats": "PutFloats"},
		HotPathFuncs: map[string]bool{
			"Codec.extractGrid": true, "Codec.DecodeFrame": true,
			"Receiver.ingest": true,
		},
		// Mirror the real tree: an "obs" sub-package stands in for injected
		// observability and is taint-exempt.
		TaintExemptRoots: map[string]bool{"obs": true},
		LockRoots:        map[string]bool{},
		GoroutineRoots:   map[string]bool{},
	}
	if contract {
		cfg.ContractRoots[name] = true
	}
	if conf != nil {
		conf(&cfg)
	}
	r := &Runner{Analyzers: AllAnalyzers(), ModuleAnalyzers: AllModuleAnalyzers(), Config: cfg}
	findings := r.Run(pkgs)
	var wants []expectation
	for _, pkg := range pkgs {
		wants = append(wants, fixtureExpectations(t, pkg)...)
	}

	matched := make([]bool, len(findings))
	for _, w := range wants {
		ok := false
		for i, f := range findings {
			if !matched[i] && f.Pos.Filename == w.file && f.Pos.Line == w.line && w.re.MatchString(f.Msg) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
	for i, f := range findings {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", f)
		}
	}
}

func TestFixtures(t *testing.T) {
	fixtures := []struct {
		name     string
		contract bool
		conf     func(*Config)
	}{
		{"timenow", true, nil},
		{"obsclock", true, nil},
		{"globalrand", true, nil},
		{"maporder", true, nil},
		{"sentinelcmp", true, nil},
		{"wrapverb", true, nil},
		{"panicguard", true, nil},
		{"floateq", true, nil},
		{"poolput", true, nil},
		{"loopcapture", true, nil},
		{"ladder", true, nil},
		{"hotalloc", true, nil},
		// The contract rules stay quiet when the package is outside the
		// contract set, so only the directive check (RB-X1) fires here.
		{"directive", false, nil},
		// A directive that suppresses nothing is reported (RB-X2).
		{"unused", true, nil},
		// Whole-module rules.
		{"taint", true, nil},
		{"generics", true, nil},
		{"snapfields", false, func(c *Config) {
			c.SnapshotContracts = []SnapshotContract{
				{Type: "snapfields.State", Encode: "snapfields.EncodeState", Decode: "snapfields.DecodeState"},
				{Type: "snapfields.Pair", Encode: "snapfields.EncodePair", Decode: "snapfields.DecodePair"},
			}
		}},
		{"lockblock", false, func(c *Config) {
			c.LockRoots["lockblock"] = true
		}},
		{"goterm", false, func(c *Config) {
			c.GoroutineRoots["goterm"] = true
		}},
		// RB-U1 derives its roots from the module; this fixture is the
		// only one with a main package, so the only one it reports in.
		{"unreached", false, nil},
	}
	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) { runFixture(t, fx.name, fx.contract, fx.conf) })
	}
}

// TestContractScoping pins that determinism rules are scoped: the same
// fixture produces zero determinism findings when the package is not in
// the contract set.
func TestContractScoping(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "src", "timenow"))
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Analyzers: AllAnalyzers(), Config: Config{}}
	if findings := r.Run([]*Package{pkg}); len(findings) != 0 {
		t.Fatalf("non-contract package should be clean, got %v", findings)
	}
}

// TestContractKey pins the path-to-root mapping the Config keys rely on.
func TestContractKey(t *testing.T) {
	cases := map[string]string{
		"rainbar/internal/core":        "core",
		"rainbar/internal/core/layout": "core",
		"rainbar/internal/core_test":   "core",
		"rainbar/internal/faults":      "faults",
		"rainbar":                      "rainbar",
		"rainbar/cmd/rainbar-bench":    "rainbar-bench",
		"fixture/timenow":              "timenow",
		// The durability subsystem folds under the serve roots, so the
		// journal inherits serve's contract, lock, and goroutine rules
		// without its own entries.
		"rainbar/internal/serve/journal": "serve",
	}
	for path, want := range cases {
		if got := contractKey(path); got != want {
			t.Errorf("contractKey(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestRepositoryClean is the lint gate in test form: the module's own tree
// must produce zero findings. It doubles as an end-to-end exercise of the
// loader over every package in the module, external test packages
// included.
func TestRepositoryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	var msgs []string
	for _, f := range NewRunner().Run(pkgs) {
		msgs = append(msgs, f.String())
	}
	if len(msgs) > 0 {
		t.Errorf("repository has %d lint finding(s):\n%s", len(msgs), strings.Join(msgs, "\n"))
	}
}

// TestFindingString pins the diagnostic format CI greps for.
func TestFindingString(t *testing.T) {
	f := Finding{Rule: "RB-D1", Msg: "message"}
	f.Pos.Filename = "a/b.go"
	f.Pos.Line = 3
	f.Pos.Column = 7
	if got, want := f.String(), "a/b.go:3:7: message [RB-D1]"; got != want {
		t.Errorf("Finding.String() = %q, want %q", got, want)
	}
	_ = fmt.Sprintf("%s", f)
}
