// Package analysis is rainbar-lint's engine: a stdlib-only static-analysis
// suite (go/parser + go/ast + go/types, no external dependencies) that
// machine-enforces the repository's written contracts:
//
//   - determinism — contract packages (faults, experiment, channel, camera,
//     core, transport) must be bit-reproducible functions of (seed, index):
//     no wall clock, no global math/rand, no map-iteration order leaking
//     into emitted rows or returned slices (RB-D1..D3), and no
//     construction of obs recorders or clocks — observability is injected
//     by callers so its clock never reaches contract code (RB-O1);
//   - error discipline — sentinel errors are matched with errors.Is, wrapped
//     with %w, and the decode/transport pipeline never panics outside
//     Must* constructors (RB-E1..E3);
//   - float equality — no ==/!= on floating-point operands outside tests
//     (RB-F1);
//   - pool/goroutine hygiene — sync.Pool values return to their pool on
//     every path, and goroutines started in loops do not capture state the
//     loop keeps mutating (RB-C1..C2);
//   - hot-path memory — the designated decode hot-path functions contain
//     no unannotated make/append growth; buffers there come from the
//     decode scratch (RB-P1);
//   - reachability — every non-test function is reached from a main, an
//     init, a package-level initializer or the public API (RB-U1).
//
// Each rule lives in its own file and registers an *Analyzer; the shared
// core here provides the Pass plumbing, the suppression directives, and the
// Finding type. Directives:
//
//	//lint:ordered <reason>             suppress RB-D3 (iteration order immaterial)
//	//lint:allow <RULE-ID> <reason>     suppress one rule on this / the next line
//	//lint:file-allow <RULE-ID> <reason> suppress one rule for the whole file
//
// A directive with no reason is itself reported (RB-X1): every escape hatch
// must say why the invariant holds anyway. So is a directive that
// suppresses no finding in a run that applied its rule (RB-X2): an escape
// hatch must not outlive the code it excused.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic: a stable rule ID, a position, and a message.
type Finding struct {
	Rule string
	Pos  token.Position
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Pos, f.Msg, f.Rule)
}

// Analyzer is one rule. Run inspects the Pass and reports findings via
// Pass.Report; the runner handles suppression and ordering.
type Analyzer struct {
	ID  string // stable rule ID, e.g. "RB-D1"
	Doc string // one-line invariant description
	Run func(*Pass)
}

// Config selects which packages each contract applies to and which
// pool accessors must be paired.
type Config struct {
	// ContractRoots are the determinism-contract packages, keyed by the
	// first path segment after "internal/" (or the last segment for
	// packages outside internal/). RB-D1..D3 only fire inside these.
	ContractRoots map[string]bool
	// DecodeRoots are the decode/transport-pipeline packages where panic
	// is forbidden outside Must* constructors (RB-E3).
	DecodeRoots map[string]bool
	// PoolPairs maps pool-accessor function names to the call that must
	// return the value (RB-C1), in addition to sync.Pool.Get/Put proper.
	PoolPairs map[string]string
	// HotPathFuncs are the decode hot-path functions where make/append
	// growth must be annotated (RB-P1), keyed "Recv.Name" for methods or
	// by bare name for functions. Only consulted in DecodeRoots packages.
	HotPathFuncs map[string]bool
	// TaintExemptRoots are packages whose determinism-taint sources are
	// declared unable to reach contract output (RB-D4): observability is
	// injected by callers and proven output-neutral, so its wall clock
	// never taints a contract function that records into it.
	TaintExemptRoots map[string]bool
	// LockRoots are the packages whose mutex discipline RB-C3 checks: no
	// mutex may be held across a transitively blocking operation there.
	LockRoots map[string]bool
	// GoroutineRoots are the packages where RB-C4 requires every goroutine
	// to carry a visible termination path.
	GoroutineRoots map[string]bool
	// SnapshotContracts are the struct/codec triples RB-S1 verifies: every
	// exported field of Type must be mentioned in both the Encode and the
	// Decode function's call-graph closure.
	SnapshotContracts []SnapshotContract
}

// SnapshotContract names one snapshot-completeness obligation (RB-S1).
// Type is "<contract-key>.<TypeName>"; Encode and Decode are
// "<contract-key>.<FuncName>" roots whose closures must mention every
// exported field of the struct.
type SnapshotContract struct {
	Type   string
	Encode string
	Decode string
}

// DefaultConfig returns the repository's contract configuration.
func DefaultConfig() Config {
	return Config{
		ContractRoots: map[string]bool{
			"faults": true, "experiment": true, "channel": true,
			"camera": true, "core": true, "transport": true,
			"serve": true,
		},
		DecodeRoots: map[string]bool{
			"core": true, "cobra": true, "lightsync": true, "transport": true,
		},
		HotPathFuncs: map[string]bool{
			"Codec.extractGrid": true, "Codec.DecodeFrame": true,
			"Receiver.ingest": true,
		},
		TaintExemptRoots: map[string]bool{
			// obs is injected observability: recorders and their clocks are
			// handed in by callers, contract packages never construct them
			// (RB-O1), and TestRecorderLeavesTablesByteIdentical proves the
			// recorded values never feed back into contract output.
			"obs": true,
		},
		LockRoots: map[string]bool{"serve": true},
		GoroutineRoots: map[string]bool{
			"serve": true, "transport": true,
			// The capture kernel's per-capture sensor goroutine.
			"channel": true, "camera": true,
		},
		SnapshotContracts: []SnapshotContract{
			// The serve snapshot envelope and the transport state it carries:
			// every exported field must survive the encode/decode round-trip,
			// so "added a counter, forgot the snapshot" fails the lint gate
			// instead of silently diverging on restore.
			{Type: "serve.Snapshot", Encode: "serve.EncodeSnapshot", Decode: "serve.DecodeSnapshot"},
			{Type: "transport.XferState", Encode: "serve.encodeXferState", Decode: "serve.decodeXferState"},
			{Type: "transport.CollectorState", Encode: "serve.encodeXferState", Decode: "serve.decodeXferState"},
			{Type: "transport.CombinerState", Encode: "serve.encodeXferState", Decode: "serve.decodeXferState"},
			{Type: "transport.CombinerChunk", Encode: "serve.encodeXferState", Decode: "serve.decodeXferState"},
			{Type: "transport.Stats", Encode: "serve.encodeXferState", Decode: "serve.decodeXferState"},
			// The durability journal's record framing (internal/serve/journal
			// folds to the "serve" contract key): a Record field that skips
			// encodeFrame/decodeFrame would silently vanish from the WAL and
			// so from every crash recovery.
			{Type: "serve.Record", Encode: "serve.encodeFrame", Decode: "serve.decodeFrame"},
		},
	}
}

// contractKey reduces an import path to the segment the Config roots are
// keyed by: the segment after "internal" when present, else the last one.
// External test units ("..._test") map to their subject package.
func contractKey(path string) string {
	segs := strings.Split(path, "/")
	key := segs[len(segs)-1]
	for i, s := range segs {
		if s == "internal" && i+1 < len(segs) {
			key = segs[i+1]
			break
		}
	}
	return strings.TrimSuffix(key, "_test")
}

// Pass is one package's worth of analysis input plus the finding sink.
type Pass struct {
	Fset     *token.FileSet
	Pkg      *Package
	Config   Config
	Contract bool // subject to determinism rules (RB-D*)
	Decode   bool // subject to the panic guard (RB-E3)

	rule     string // ID of the analyzer currently running
	findings *[]Finding
	suppress suppressTable
}

// suppressTable maps file -> line -> rule ID -> the directive that
// suppresses the rule there.
type suppressTable map[string]map[int]map[string]*suppression

// suppression is one directive's claim on one rule. used records whether
// the run consumed it, that is, whether it suppressed anything.
type suppression struct {
	pos  token.Position
	used bool
}

// suppressed reports whether a rule is directive-suppressed at a position:
// on the same line (trailing comment), the line above (standalone comment),
// or file-wide. The directive that answers is marked used.
func (t suppressTable) suppressed(rule string, pos token.Position) bool {
	lines := t[pos.Filename]
	if lines == nil {
		return false
	}
	for _, l := range []int{pos.Line, pos.Line - 1, wholeFile} {
		if s := lines[l][rule]; s != nil {
			s.used = true
			return true
		}
	}
	return false
}

// unused reports (rule RB-X2) every directive that suppressed nothing in a
// run that applied its rule. Directives naming rules the run did not apply
// are not judged, nor are RB-D1..D3 directives in a run without RB-D4,
// whose taint sources honour them too (funcSources).
func (t suppressTable) unused(ran map[string]bool) []Finding {
	var out []Finding
	for _, lines := range t {
		for _, rules := range lines {
			for rule, s := range rules {
				taintRead := rule == "RB-D1" || rule == "RB-D2" || rule == "RB-D3"
				if s.used || !ran[rule] || (taintRead && !ran["RB-D4"]) {
					continue
				}
				out = append(out, Finding{
					Rule: "RB-X2",
					Pos:  s.pos,
					Msg:  fmt.Sprintf("lint directive suppresses nothing: no %s finding where it applies; delete it", rule),
				})
			}
		}
	}
	return out
}

// merge folds another table into t (used to build the module-wide table;
// file names are unique across packages, so entries never collide).
func (t suppressTable) merge(other suppressTable) {
	for file, lines := range other {
		t[file] = lines
	}
}

// NonTestFiles yields the package's non-test files; most rules scope to
// these (test code exercises the contracts rather than carrying them).
func (p *Pass) NonTestFiles() []*ast.File {
	var out []*ast.File
	for _, f := range p.Pkg.Files {
		if !p.Pkg.TestFile[f] {
			out = append(out, f)
		}
	}
	return out
}

// Report records a finding for the current rule unless a directive
// suppresses it on this line or the line above.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppressed(p.rule, position) {
		return
	}
	*p.findings = append(*p.findings, Finding{
		Rule: p.rule,
		Pos:  position,
		Msg:  fmt.Sprintf(format, args...),
	})
}

func (p *Pass) suppressed(rule string, pos token.Position) bool {
	return p.suppress.suppressed(rule, pos)
}

// TypeOf is shorthand for the package's types.Info.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf resolves an identifier through Uses then Defs.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Pkg.Info.ObjectOf(id) }

// PkgFunc reports whether call invokes pkgPath.name (a package-level
// function accessed through its import), e.g. PkgFunc(call, "time", "Now").
func (p *Pass) PkgFunc(call *ast.CallExpr, pkgPath, name string) bool {
	return infoPkgFunc(p.Pkg.Info, call, pkgPath, name)
}

// IsPkgIdent reports whether e is an identifier denoting the import of
// pkgPath in this file (not a shadowing local variable).
func (p *Pass) IsPkgIdent(e ast.Expr, pkgPath string) bool {
	return infoIsPkgIdent(p.Pkg.Info, e, pkgPath)
}

// infoObjectOf resolves an identifier through Uses then Defs.
func infoObjectOf(info *types.Info, id *ast.Ident) types.Object {
	return info.ObjectOf(id)
}

// infoPkgFunc is PkgFunc against a bare types.Info (usable outside a Pass,
// e.g. by the call-graph summary extraction).
func infoPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	return infoIsPkgIdent(info, sel.X, pkgPath)
}

// infoIsPkgIdent is IsPkgIdent against a bare types.Info.
func infoIsPkgIdent(info *types.Info, e ast.Expr, pkgPath string) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := infoObjectOf(info, id).(*types.PkgName)
	return ok && pn.Imported().Path() == pkgPath
}

// wholeFile is the pseudo-line under which file-scoped suppressions are
// recorded; real token positions are always >= 1.
const wholeFile = -1

// directive is one parsed escape-hatch comment.
type directive struct {
	Kind   string // "allow", "file-allow", or "ordered"
	Rules  []string
	Reason string
}

// parseDirective parses one comment's lint directive; ok is false when the
// comment is not a directive at all. A directive with no rule ID parses
// with empty Rules (RB-X1 flags it).
func parseDirective(text string) (d directive, ok bool) {
	body, found := strings.CutPrefix(strings.TrimSpace(text), "//lint:")
	if !found {
		return directive{}, false
	}
	// A nested "// ..." (fixture want-comments) is not part of the directive.
	if i := strings.Index(body, "//"); i >= 0 {
		body = body[:i]
	}
	fields := strings.Fields(body)
	if len(fields) == 0 {
		return directive{}, false
	}
	switch fields[0] {
	case "ordered":
		return directive{Kind: "ordered", Rules: []string{"RB-D3"}, Reason: strings.Join(fields[1:], " ")}, true
	case "allow", "file-allow":
		if len(fields) < 2 {
			return directive{Kind: fields[0]}, true
		}
		return directive{Kind: fields[0], Rules: []string{fields[1]}, Reason: strings.Join(fields[2:], " ")}, true
	}
	return directive{}, false
}

// collectDirectives scans a package's comments into the suppression table
// and reports reason-less directives (rule RB-X1): an escape hatch that
// does not say why the invariant still holds is itself a contract breach.
func collectDirectives(fset *token.FileSet, pkg *Package, findings *[]Finding) suppressTable {
	table := make(suppressTable)
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				d, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				if len(d.Rules) == 0 || d.Reason == "" {
					*findings = append(*findings, Finding{
						Rule: "RB-X1",
						Pos:  pos,
						Msg:  "lint directive needs a rule ID and a reason, e.g. //lint:allow RB-D1 wall-clock telemetry only",
					})
					continue
				}
				byLine := table[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]map[string]*suppression)
					table[pos.Filename] = byLine
				}
				line := pos.Line
				if d.Kind == "file-allow" {
					line = wholeFile
				}
				set := byLine[line]
				if set == nil {
					set = make(map[string]*suppression)
					byLine[line] = set
				}
				for _, r := range d.Rules {
					set[r] = &suppression{pos: pos}
				}
			}
		}
	}
	return table
}

// sortFindings orders diagnostics by file, line, column, then rule ID so
// output is stable across runs and suitable for golden comparison.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}
