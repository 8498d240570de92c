// Command rainbar-lint runs the repository's contract analyzers
// (internal/analysis) over every package in the module: determinism
// (RB-D1..D4), observability injection (RB-O1), error discipline
// (RB-E1..E3), float equality (RB-F1), pool/goroutine hygiene
// (RB-C1..C2), serve concurrency discipline (RB-C3..C4), snapshot
// completeness (RB-S1), and code no entry point reaches (RB-U1). See
// DESIGN.md §8 for the rule table.
//
// Usage:
//
//	rainbar-lint [-dir <module root>] [-json] [-graph] [-annotations] [./...]
//
// The whole module is always analyzed; the optional ./... argument is
// accepted for CI-invocation symmetry with go vet. Modes:
//
//	(default)     print findings as text, one per line
//	-json         print findings as a JSON array (machine-readable gate)
//	-graph        dump the module call graph instead of linting
//	-annotations  audit every lint directive: location, rules, reason;
//	              exit nonzero when a directive names a stale rule ID
//
// Exit codes: 0 clean, 1 findings (or stale annotations), 2 load or usage
// error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"rainbar/internal/analysis"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rainbar-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", ".", "directory inside the module to lint")
	jsonOut := fs.Bool("json", false, "print findings as a JSON array")
	graph := fs.Bool("graph", false, "dump the module call graph and exit")
	annotations := fs.Bool("annotations", false, "audit lint directives and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	for _, pat := range fs.Args() {
		if pat != "./..." {
			fmt.Fprintf(stderr, "rainbar-lint: unsupported pattern %q (the whole module is always analyzed; use ./...)\n", pat)
			return 2
		}
	}

	root, err := findModuleRoot(*dir)
	if err != nil {
		fmt.Fprintln(stderr, "rainbar-lint:", err)
		return 2
	}
	pkgs, err := analysis.LoadModule(root)
	if err != nil {
		fmt.Fprintln(stderr, "rainbar-lint:", err)
		return 2
	}

	switch {
	case *graph:
		g := analysis.BuildGraph(pkgs[0].Fset, pkgs)
		g.Dump(stdout, root)
		return 0
	case *annotations:
		return auditAnnotations(pkgs, root, stdout)
	}

	findings := analysis.NewRunner().Run(pkgs)
	if *jsonOut {
		if findings == nil {
			findings = []analysis.Finding{} // encode a clean run as [], not null
		}
		for i := range findings {
			findings[i].Pos.Filename = relTo(root, findings[i].Pos.Filename)
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, "rainbar-lint:", err)
			return 2
		}
		if len(findings) > 0 {
			return 1
		}
		return 0
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, shorten(root, f))
	}
	if len(findings) > 0 {
		fmt.Fprintf(stdout, "rainbar-lint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// auditAnnotations lists every lint directive in the module — location,
// kind, rule IDs, reason — and fails when any names a rule ID the suite no
// longer registers (a stale suppression guards nothing).
func auditAnnotations(pkgs []*analysis.Package, root string, stdout io.Writer) int {
	anns := analysis.CollectAnnotations(pkgs, analysis.KnownRules())
	stale := 0
	for _, a := range anns {
		reason := a.Reason
		if reason == "" {
			reason = "(no reason: RB-X1)"
		}
		fmt.Fprintf(stdout, "%s:%d: //lint:%s %s — %s\n",
			relTo(root, a.Pos.Filename), a.Pos.Line, a.Kind,
			strings.Join(a.Rules, ","), reason)
		for _, r := range a.Stale {
			stale++
			fmt.Fprintf(stdout, "%s:%d: stale rule ID %s: not in the registered suite\n",
				relTo(root, a.Pos.Filename), a.Pos.Line, r)
		}
	}
	fmt.Fprintf(stdout, "rainbar-lint: %d annotation(s), %d stale rule ID(s)\n", len(anns), stale)
	if stale > 0 {
		return 1
	}
	return 0
}

// findModuleRoot walks upward from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", abs)
		}
		d = parent
	}
}

// relTo rewrites a filename relative to the module root so output is
// stable regardless of where the tool runs.
func relTo(root, filename string) string {
	if rel, err := filepath.Rel(root, filename); err == nil && !filepath.IsAbs(rel) {
		return rel
	}
	return filename
}

// shorten rewrites a finding's filename relative to the module root.
func shorten(root string, f analysis.Finding) string {
	f.Pos.Filename = relTo(root, f.Pos.Filename)
	return f.String()
}
