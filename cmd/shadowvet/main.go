// Command shadowvet runs the repository's custom static-analysis suite
// (internal/analysis) over package patterns and reports diagnostics with
// file:line positions, exiting non-zero on findings.
//
// Usage:
//
//	go run ./cmd/shadowvet ./...
//	go run ./cmd/shadowvet ./internal/... ./cmd/...
//	go run ./cmd/shadowvet -json ./... > shadowvet-report.json
//	go run ./cmd/shadowvet -sarif ./... > shadowvet.sarif
//	go run ./cmd/shadowvet -list
//
// The suite enforces simulator determinism (no wall-clock reads, no global
// math/rand, no order-sensitive map iteration in the simulation packages),
// exhaustive switches over the closed enums (span.Cause, obs.Kind,
// memctrl.CmdKind, ...), nil-receiver guards on the nil-safe obs hot-path
// types, the internal/ import DAG, the "<pkg>: ..." panic-message
// convention, checked errors on DRAM command-issuing methods, and the
// concurrency discipline: no by-value lock copies (locks), every
// Lock/RLock released on all paths with no double-lock and no blocking
// under a lock (lockflow, flow-sensitive over the internal/analysis/cfg
// control-flow graphs), a visible termination signal on every go
// statement (goroleak), and guarded writes to hot-path simulator state
// from goroutines or callbacks (sharedflow). Two interprocedural
// analyzers work over the module-wide call graph
// (internal/analysis/callgraph): allocflow proves everything reachable
// from the hot-path roots (the scheduler tick, the controller step, the
// flight/span recording paths) allocation-free, and detflow flags
// calls from the simulation packages that transitively reach a
// nondeterminism source in unrestricted code. A finding can be waived with
// a "//shadowvet:ignore <analyzer> -- reason" comment on or above the
// offending line; the driver checks the waivers themselves (a reason is
// mandatory and a waiver that suppresses nothing is itself a finding).
//
// -json emits the findings as a JSON array (empty when clean) on stdout
// for CI annotation; -sarif emits a SARIF 2.1.0 log instead, the format
// code forges ingest for inline review annotations. The two are mutually
// exclusive. The human-readable summary stays on stderr. Packages are
// analyzed in parallel; output order is deterministic either way.
package main

import (
	"flag"
	"fmt"
	"os"

	"shadow/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout (for CI annotation)")
	sarifOut := flag.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log on stdout (for forge annotation)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: shadowvet [-list] [-json|-sarif] [packages]\n\npackages are go-style patterns (default ./...)\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *jsonOut && *sarifOut {
		fmt.Fprintln(os.Stderr, "shadowvet: -json and -sarif are mutually exclusive")
		os.Exit(2)
	}

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := analysis.ExpandPatterns(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shadowvet: %v\n", err)
		os.Exit(2)
	}
	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "shadowvet: %v\n", err)
		os.Exit(2)
	}

	// Loading stays sequential (the loader's importer cache is shared);
	// the analysis itself fans out per package below.
	var pkgs []*analysis.Package
	for _, dir := range dirs {
		loaded, err := loader.LoadDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "shadowvet: %s: %v\n", dir, err)
			os.Exit(2)
		}
		for _, pkg := range loaded {
			for _, terr := range pkg.TypeErrors {
				fmt.Fprintf(os.Stderr, "shadowvet: warning: %s: %v\n", pkg.Path, terr)
			}
		}
		pkgs = append(pkgs, loaded...)
	}

	diags := analysis.Run(pkgs, analyzers, analysis.Options{
		CheckWaivers: true,
		Parallel:     true,
	})
	if *jsonOut {
		if err := analysis.WriteJSON(os.Stdout, diags); err != nil {
			fmt.Fprintf(os.Stderr, "shadowvet: %v\n", err)
			os.Exit(2)
		}
	} else if *sarifOut {
		if err := analysis.WriteSARIF(os.Stdout, diags); err != nil {
			fmt.Fprintf(os.Stderr, "shadowvet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "shadowvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
