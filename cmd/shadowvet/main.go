// Command shadowvet runs the repository's custom static-analysis suite
// (internal/analysis) over package patterns and reports diagnostics with
// file:line positions, exiting non-zero on findings.
//
// Usage:
//
//	go run ./cmd/shadowvet ./...
//	go run ./cmd/shadowvet ./internal/... ./cmd/...
//	go run ./cmd/shadowvet -json-out shadowvet-report.json -sarif-out shadowvet.sarif ./...
//	go run ./cmd/shadowvet -list
//
// The suite enforces simulator determinism (no wall-clock reads, no global
// math/rand, no order-sensitive map iteration and no multi-ready select in
// the simulation packages), exhaustive switches over the closed enums
// (span.Cause, obs.Kind, memctrl.CmdKind, ...), nil-receiver guards on the
// nil-safe obs hot-path types, the internal/ import DAG, the "<pkg>: ..."
// panic-message convention, and checked errors on DRAM command-issuing
// methods.
// Concurrency is left to the stock tools: `go vet` catches by-value lock
// copies and `go test -race` catches races. One interprocedural analyzer
// works over the module-wide call graph (internal/analysis/callgraph):
// allocflow proves everything reachable from the hot-path roots (the
// scheduler tick, the controller step, the flight/span recording paths)
// allocation-free. A finding can be waived with
// a "//shadowvet:ignore <analyzer> -- reason" comment on or above the
// offending line; the driver checks the waivers themselves (a reason is
// mandatory and a waiver that suppresses nothing is itself a finding).
//
// Findings print one per line on stdout, with a count on stderr. The exit
// status is 0 when clean, 1 on findings and 2 when the packages cannot be
// loaded, a type error in any of them included. One
// analysis also writes the machine-readable reports: -json-out FILE writes
// the findings as a JSON array (empty when clean) for CI annotation, and
// -sarif-out FILE writes a SARIF 2.1.0 log, the format code forges ingest
// for inline review annotations. Packages are analyzed in parallel; output
// order is deterministic either way.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"shadow/internal/analysis"
	"shadow/internal/cli"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	jsonOut := flag.String("json-out", "", "also write the findings as a JSON array to this file (for CI annotation)")
	sarifOut := flag.String("sarif-out", "", "also write the findings as a SARIF 2.1.0 log to this file (for forge annotation)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: shadowvet [-list] [-json-out FILE] [-sarif-out FILE] [packages]\n\npackages are go-style patterns (default ./...)\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

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
	// the analysis itself fans out per package below. A type error is a
	// load failure: analyzers on partial type information can miss
	// findings, so a tree that does not type-check fails the gate.
	var pkgs []*analysis.Package
	typeErrors := 0
	for _, dir := range dirs {
		loaded, err := loader.LoadDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "shadowvet: %s: %v\n", dir, err)
			os.Exit(2)
		}
		for _, pkg := range loaded {
			for _, terr := range pkg.TypeErrors {
				fmt.Fprintf(os.Stderr, "shadowvet: %s: type error: %v\n", pkg.Path, terr)
				typeErrors++
			}
		}
		pkgs = append(pkgs, loaded...)
	}
	if typeErrors > 0 {
		fmt.Fprintf(os.Stderr, "shadowvet: %d type error(s); nothing analyzed\n", typeErrors)
		os.Exit(2)
	}

	diags := analysis.Run(pkgs, analyzers, analysis.Options{
		CheckWaivers: true,
		Parallel:     true,
	})
	for _, d := range diags {
		fmt.Println(d)
	}
	writeReport(*jsonOut, analysis.WriteJSON, diags)
	writeReport(*sarifOut, analysis.WriteSARIF, diags)
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "shadowvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// writeReport writes diags to path in one report format; an empty path
// writes nothing. A failed write exits 2, like a load error.
func writeReport(path string, write func(io.Writer, []analysis.Diagnostic) error, diags []analysis.Diagnostic) {
	if path == "" {
		return
	}
	if err := cli.WriteFile(path, func(w io.Writer) error { return write(w, diags) }); err != nil {
		fmt.Fprintf(os.Stderr, "shadowvet: %v\n", err)
		os.Exit(2)
	}
}
