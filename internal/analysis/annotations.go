package analysis

import (
	"go/token"
	"sort"
)

// Annotation is one lint directive found in the tree — the audit-mode
// (-annotations) view of the escape hatches. Every directive is a standing
// claim that an invariant holds for a reason the rule cannot see; the audit
// lists them all so the claims stay reviewable, and flags the ones whose
// rule IDs no longer exist (stale: the rule was renamed or removed, so the
// directive suppresses nothing and the reason guards nothing).
type Annotation struct {
	Pos    token.Position
	Kind   string   // "allow", "file-allow", or "ordered"
	Rules  []string // rule IDs the directive names
	Reason string   // empty reasons are RB-X1 findings, still listed here
	Stale  []string // named rule IDs not present in the registered suite
}

// KnownRules returns the IDs a directive may legitimately name: every
// registered per-package and whole-module rule, plus RB-X1 and RB-X2 (the
// directive checks themselves).
func KnownRules() map[string]bool {
	known := map[string]bool{"RB-X1": true, "RB-X2": true}
	for _, a := range AllAnalyzers() {
		known[a.ID] = true
	}
	for _, a := range AllModuleAnalyzers() {
		known[a.ID] = true
	}
	return known
}

// CollectAnnotations scans every package's comments for lint directives and
// returns them in position order, with stale rule IDs marked.
func CollectAnnotations(pkgs []*Package, known map[string]bool) []Annotation {
	var out []Annotation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, group := range f.Comments {
				for _, c := range group.List {
					d, ok := parseDirective(c.Text)
					if !ok {
						continue
					}
					a := Annotation{
						Pos:    pkg.Fset.Position(c.Pos()),
						Kind:   d.Kind,
						Rules:  d.Rules,
						Reason: d.Reason,
					}
					for _, r := range d.Rules {
						if !known[r] {
							a.Stale = append(a.Stale, r)
						}
					}
					out = append(out, a)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return out
}
