package analysis

import (
	"fmt"
	"go/token"
)

// Runner applies a fixed analyzer suite to type-checked packages: first the
// per-package rules, then (when the suite has any) the whole-module rules
// over a call graph built across every package at once.
type Runner struct {
	Analyzers       []*Analyzer
	ModuleAnalyzers []*ModuleAnalyzer
	Config          Config
}

// NewRunner returns a runner with the full rule suite and the repository's
// default contract configuration.
func NewRunner() *Runner {
	return &Runner{
		Analyzers:       AllAnalyzers(),
		ModuleAnalyzers: AllModuleAnalyzers(),
		Config:          DefaultConfig(),
	}
}

// AllAnalyzers returns every registered per-package rule in stable ID order.
func AllAnalyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerTimeNow,     // RB-D1
		AnalyzerGlobalRand,  // RB-D2
		AnalyzerMapOrder,    // RB-D3
		AnalyzerObsClock,    // RB-O1
		AnalyzerSentinelCmp, // RB-E1
		AnalyzerWrapVerb,    // RB-E2
		AnalyzerPanicGuard,  // RB-E3
		AnalyzerFloatEq,     // RB-F1
		AnalyzerPoolPut,     // RB-C1
		AnalyzerLoopCapture, // RB-C2
		AnalyzerHotAlloc,    // RB-P1
	}
}

// AllModuleAnalyzers returns every registered whole-module rule in stable
// ID order.
func AllModuleAnalyzers() []*ModuleAnalyzer {
	return []*ModuleAnalyzer{
		ModuleAnalyzerLockBlock,  // RB-C3
		ModuleAnalyzerGoTerm,     // RB-C4
		ModuleAnalyzerTaint,      // RB-D4
		ModuleAnalyzerSnapFields, // RB-S1
		ModuleAnalyzerUnreached,  // RB-U1
	}
}

// ModuleAnalyzer is one whole-module rule: it sees every package and the
// call graph at once, where an Analyzer sees one package at a time.
type ModuleAnalyzer struct {
	ID  string // stable rule ID, e.g. "RB-D4"
	Doc string // one-line invariant description
	Run func(*ModulePass)
}

// ModulePass is the whole-module analysis input: all packages, the call
// graph over them, and the merged suppression table.
type ModulePass struct {
	Fset   *token.FileSet
	Pkgs   []*Package
	Config Config
	Graph  *Graph

	rule     string
	findings *[]Finding
	suppress suppressTable
}

// Report records a finding for the current module rule unless a directive
// suppresses it at the position.
func (mp *ModulePass) Report(pos token.Pos, format string, args ...any) {
	position := mp.Fset.Position(pos)
	if mp.suppress.suppressed(mp.rule, position) {
		return
	}
	*mp.findings = append(*mp.findings, Finding{
		Rule: mp.rule,
		Pos:  position,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// Run applies the suite to the given packages and returns all findings
// sorted by position then rule ID.
func (r *Runner) Run(pkgs []*Package) []Finding {
	var findings []Finding
	module := make(suppressTable)
	ran := make(map[string]bool)
	for _, pkg := range pkgs {
		key := contractKey(pkg.Path)
		pass := &Pass{
			Fset:     pkg.Fset,
			Pkg:      pkg,
			Config:   r.Config,
			Contract: r.Config.ContractRoots[key],
			Decode:   r.Config.DecodeRoots[key],
			findings: &findings,
		}
		pass.suppress = collectDirectives(pkg.Fset, pkg, &findings)
		module.merge(pass.suppress)
		for _, a := range r.Analyzers {
			pass.rule = a.ID
			ran[a.ID] = true
			a.Run(pass)
		}
	}
	if len(r.ModuleAnalyzers) > 0 && len(pkgs) > 0 {
		mp := &ModulePass{
			Fset:     pkgs[0].Fset,
			Pkgs:     pkgs,
			Config:   r.Config,
			Graph:    BuildGraph(pkgs[0].Fset, pkgs),
			findings: &findings,
			suppress: module,
		}
		for _, a := range r.ModuleAnalyzers {
			mp.rule = a.ID
			ran[a.ID] = true
			a.Run(mp)
		}
	}
	findings = append(findings, module.unused(ran)...)
	sortFindings(findings)
	return findings
}
