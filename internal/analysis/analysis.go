// Package analysis is shadowvet's analyzer framework: a dependency-free
// (standard library only) reimplementation of the go/analysis idea, sized
// for this repository. Analyzers inspect one type-checked package at a time
// and report diagnostics; cmd/shadowvet drives them over the tree.
//
// The suite exists because every figure of the paper is regenerated from a
// deterministic cycle-level simulation: a single hidden source of
// nondeterminism (a wall-clock read, global math/rand, an order-dependent
// map iteration) silently corrupts every table. The analyzers turn the
// repository's determinism, DRAM-protocol, and architecture conventions
// into machine checks that run in CI (scripts/check.sh).
//
// A finding can be waived where a human can prove what the analyzer cannot
// (for example an order-independent min/max reduction over a map) by
// annotating the line — or the line directly above it — with
//
//	//shadowvet:ignore <analyzer>[,<analyzer>...] -- reason
//
// Waivers are themselves checked (Options.CheckWaivers, always on in the
// driver): a waiver must carry a "-- reason" justification, must name known
// analyzers, and must actually suppress a finding — a stale waiver that
// suppresses nothing is a finding in its own right, so waivers cannot
// outlive the code smell they excused.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"

	"shadow/internal/analysis/callgraph"
)

// An Analyzer is one named check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is a one-paragraph description for -list output.
	Doc string
	// Run inspects the pass's package and reports findings via Pass.Reportf.
	Run func(*Pass)
	// Prepare, when non-nil, makes the analyzer cross-package: it runs once
	// per Run invocation over the whole loaded package set, before any
	// per-package pass, and its result is handed to every Run call through
	// Pass.Facts. Prepare computes whole-program facts (reachability over
	// the module call graph); Run stays the only
	// reporting path, so diagnostics keep package-local positions, waiver
	// suppression, and the scheduling-independent sorted output of the
	// parallel driver. Prepare itself always runs sequentially, in suite
	// order, so its facts cannot depend on goroutine interleaving.
	Prepare func(*Module) any
}

// All returns the full shadowvet suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, Exhaustive, NilGuard, Layering, PanicMsg, CmdErr, AllocFlow}
}

// A Module is the whole package set of one Run, handed to cross-package
// analyzers' Prepare hooks.
type Module struct {
	// Packages are the loaded packages in driver order (ExpandPatterns
	// output, which is sorted — deterministic for a given tree).
	Packages []*Package

	cgOnce sync.Once
	cg     *callgraph.Graph
}

// CallGraph builds (once, lazily) the call graph over every loaded package,
// including test packages. Analyzers sharing the graph through this
// accessor pay for construction once per Run.
func (m *Module) CallGraph() *callgraph.Graph {
	m.cgOnce.Do(func() {
		var fset *token.FileSet
		units := make([]callgraph.Unit, 0, len(m.Packages))
		for _, pkg := range m.Packages {
			fset = pkg.Fset
			units = append(units, callgraph.Unit{
				Path:  pkg.Path,
				Files: pkg.Files,
				Info:  pkg.Info,
				Pkg:   pkg.Types,
			})
		}
		if fset == nil {
			fset = token.NewFileSet()
		}
		m.cg = callgraph.Build(fset, units)
	})
	return m.cg
}

// WaiverAnalyzerName labels the waiver-hygiene findings produced when
// Options.CheckWaivers is set. It is not a real analyzer and cannot itself
// be waived — a circular waiver would defeat the check.
const WaiverAnalyzerName = "waiver"

// A Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	// PkgPath is the package's import path (e.g. shadow/internal/dram).
	// External test packages share the directory's import path.
	PkgPath string
	// PkgName is the package clause name (e.g. dram, dram_test).
	PkgName string
	// Pkg and Info hold type information; they are always non-nil, but may
	// be partial when the package had type errors.
	Pkg  *types.Package
	Info *types.Info
	// Facts is the analyzer's Prepare result for this Run (nil for
	// per-package analyzers and for direct RunAnalyzers subset calls made
	// without module preparation).
	Facts any

	diags   *[]Diagnostic
	waivers map[string]map[int][]*waiver // filename -> line -> directives
}

// Reportf records a diagnostic at pos unless an ignore directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppressedAt(position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

func (p *Pass) suppressedAt(pos token.Position) bool {
	lines := p.waivers[pos.Filename]
	if lines == nil {
		return false
	}
	// A directive waives its own line and the line below it (directive-only
	// comment lines annotate the statement that follows).
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		for _, w := range lines[line] {
			for _, name := range w.nameOrder {
				if name == p.Analyzer.Name {
					w.used[name] = true
					return true
				}
			}
		}
	}
	return false
}

const ignoreDirective = "shadowvet:ignore"

// A waiver is one parsed //shadowvet:ignore directive, with enough state to
// tell after the analyzers ran whether it earned its keep.
type waiver struct {
	pos       token.Position
	names     map[string]bool // analyzers the directive waives
	nameOrder []string        // declaration order, for stable diagnostics
	reason    string          // the "-- reason" tail, "" when absent
	used      map[string]bool // analyzers that actually suppressed a finding
}

// parseWaivers scans a package's comments for ignore directives and returns
// them both indexed for suppression lookup and ordered for hygiene checks.
func parseWaivers(fset *token.FileSet, files []*ast.File) (map[string]map[int][]*waiver, []*waiver) {
	index := map[string]map[int][]*waiver{}
	var all []*waiver
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, ignoreDirective) {
					continue
				}
				text = strings.TrimSpace(strings.TrimPrefix(text, ignoreDirective))
				w := &waiver{
					pos:   fset.Position(c.Pos()),
					names: map[string]bool{},
					used:  map[string]bool{},
				}
				if i := strings.Index(text, "--"); i >= 0 {
					w.reason = strings.TrimSpace(text[i+len("--"):])
					text = text[:i]
				}
				for _, name := range strings.FieldsFunc(text, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
					if !w.names[name] {
						w.names[name] = true
						w.nameOrder = append(w.nameOrder, name)
					}
				}
				lines := index[w.pos.Filename]
				if lines == nil {
					lines = map[int][]*waiver{}
					index[w.pos.Filename] = lines
				}
				lines[w.pos.Line] = append(lines[w.pos.Line], w)
				all = append(all, w)
			}
		}
	}
	return index, all
}

// Options tunes a Run.
type Options struct {
	// CheckWaivers turns waiver hygiene on: every //shadowvet:ignore must
	// carry a "-- reason", name analyzers that exist, and suppress at least
	// one finding of every analyzer it names (per name, so a two-analyzer
	// waiver with one dead name is still stale).
	CheckWaivers bool
	// Parallel analyzes packages concurrently (one goroutine per package,
	// bounded by GOMAXPROCS). Output order is unaffected: diagnostics are
	// sorted by position either way.
	Parallel bool
}

// Run applies every analyzer to every package and returns the findings
// sorted by position. Cross-package analyzers (Prepare != nil) first compute
// their whole-program facts sequentially over the full package set; the
// per-package passes — parallel or not — then consume those shared,
// read-only facts, so output stays scheduling-independent.
func Run(pkgs []*Package, analyzers []*Analyzer, opts Options) []Diagnostic {
	module := &Module{Packages: pkgs}
	facts := map[string]any{}
	for _, a := range analyzers {
		if a.Prepare != nil {
			facts[a.Name] = a.Prepare(module)
		}
	}
	perPkg := make([][]Diagnostic, len(pkgs))
	if opts.Parallel && len(pkgs) > 1 {
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		var wg sync.WaitGroup
		for i, pkg := range pkgs {
			wg.Add(1)
			go func(i int, pkg *Package) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				perPkg[i] = analyzePackage(pkg, analyzers, facts, opts)
			}(i, pkg)
		}
		wg.Wait()
	} else {
		for i, pkg := range pkgs {
			perPkg[i] = analyzePackage(pkg, analyzers, facts, opts)
		}
	}
	var diags []Diagnostic
	for _, d := range perPkg {
		diags = append(diags, d...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// RunAnalyzers is Run with default options (sequential, no waiver
// hygiene) — the shape fixture tests use, where a subset of the suite runs
// and waiver bookkeeping would misfire.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return Run(pkgs, analyzers, Options{})
}

// analyzePackage runs the analyzers over one package. Packages share no
// mutable state (the FileSet, imported type data, and prepared module facts
// are read-only here), so Run may call this concurrently.
func analyzePackage(pkg *Package, analyzers []*Analyzer, facts map[string]any, opts Options) []Diagnostic {
	var diags []Diagnostic
	index, waivers := parseWaivers(pkg.Fset, pkg.Files)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			PkgPath:  pkg.Path,
			PkgName:  pkg.Name,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Facts:    facts[a.Name],
			diags:    &diags,
			waivers:  index,
		}
		a.Run(pass)
	}
	if opts.CheckWaivers {
		diags = append(diags, checkWaivers(waivers, analyzers)...)
	}
	return diags
}

// checkWaivers turns waiver-hygiene violations into findings. A name is
// judged stale only when its analyzer actually ran; names of known
// analyzers outside this run are left alone (fixture tests run subsets).
func checkWaivers(waivers []*waiver, ran []*Analyzer) []Diagnostic {
	ranSet := map[string]bool{}
	for _, a := range ran {
		ranSet[a.Name] = true
	}
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	var out []Diagnostic
	report := func(w *waiver, format string, args ...any) {
		out = append(out, Diagnostic{
			Pos:      w.pos,
			Analyzer: WaiverAnalyzerName,
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, w := range waivers {
		if len(w.nameOrder) == 0 {
			report(w, "waiver names no analyzer; write //%s <analyzer> -- reason", ignoreDirective)
			continue
		}
		if strings.TrimSpace(w.reason) == "" {
			report(w, "waiver has no justification; append \"-- reason\" explaining why the finding is safe")
		}
		for _, name := range w.nameOrder {
			switch {
			case !known[name] && !ranSet[name]:
				report(w, "waiver names unknown analyzer %q (known: %s)", name, strings.Join(analyzerNames(All()), ", "))
			case ranSet[name] && !w.used[name]:
				report(w, "stale waiver: no %s finding here to suppress; delete the directive (or the %s entry)", name, name)
			}
		}
	}
	return out
}

func analyzerNames(as []*Analyzer) []string {
	names := make([]string, len(as))
	for i, a := range as {
		names[i] = a.Name
	}
	return names
}
