package analysis

import (
	"sort"
	"strconv"
	"strings"
)

// internalPrefix scopes the layering DAG to the module's internal tree.
const internalPrefix = "shadow/internal/"

// layerImports is the explicit import DAG for internal/: for each package
// (path relative to internal/), the internal packages it may import
// directly. The spine is timing → dram → memctrl → sim → exp; obs (with
// obs/span), report, and rng are leaves that everything above may use but
// that must never reach back up. An edge missing here is an architecture
// decision, not a formality: add it only when the dependency direction is
// genuinely intended, because a convenience import (dram reaching into
// memctrl for a type, report pulling sim for a helper) inverts the
// architecture for every future change.
var layerImports = map[string][]string{
	// Foundations: no internal imports at all.
	"timing": {},
	"hammer": {},
	"rng":    {},

	// The module-wide call graph sits below the analyzer framework.
	"analysis/callgraph": {},
	"analysis":           {"analysis/callgraph"},

	// Leaf instrumentation and reporting.
	"circuit":    {"timing"},
	"obs":        {"timing"},
	"obs/span":   {"obs", "timing"},
	"obs/flight": {"obs", "obs/span", "timing"},
	"obs/fleet":  {"obs", "timing"},
	"report":     {"obs", "obs/span", "timing"},

	// The device and what plugs into it.
	"dram":     {"hammer", "obs", "obs/span", "rng", "timing"},
	"trace":    {"dram", "hammer", "rng", "timing"},
	"mitigate": {"dram", "hammer", "obs", "obs/span", "rng", "timing"},
	"shadow":   {"dram", "hammer", "obs", "obs/span", "rng", "timing"},

	// The controller and its observers.
	"memctrl":  {"dram", "hammer", "mitigate", "obs", "obs/span", "rng", "shadow", "timing"},
	"cmdtrace": {"dram", "hammer", "memctrl", "obs", "timing"},
	"power":    {"dram", "memctrl", "timing"},

	// The simulator and the experiment layers on top.
	"sim": {"circuit", "dram", "hammer", "memctrl", "mitigate", "obs",
		"obs/span", "rng", "shadow", "timing", "trace"},
	"security": {"dram", "hammer", "mitigate", "rng", "shadow", "sim", "timing", "trace"},
	"exp": {"circuit", "dram", "hammer", "memctrl", "mitigate", "obs", "obs/flight",
		"obs/span", "power", "report", "rng", "security", "shadow", "sim", "timing", "trace"},

	// The command-line tools' shared output path: profiles, exits, HTTP
	// serving, and the recorder and flight-file wiring.
	"cli": {"obs", "obs/flight", "report"},
}

// Layering enforces the internal import DAG: a package under internal/ may
// only import the internal packages its layerImports entry allows, and
// every internal package that imports internal packages must be registered
// in the DAG. Test files are exempt (a test may drive its package from
// above — exp tests replaying sim scenarios — without inverting the
// runtime architecture); the compiled packages are not.
var Layering = &Analyzer{
	Name: "layering",
	Doc: "enforce the internal/ import DAG (timing → dram → memctrl → sim → exp; obs, report, " +
		"rng as leaves): non-test files may only import the layers below them",
	Run: runLayering,
}

func runLayering(pass *Pass) {
	self, ok := strings.CutPrefix(pass.PkgPath, internalPrefix)
	if !ok {
		return // cmd/, examples/, and the module root are above the DAG
	}
	allowed, registered := allowedImports(self)
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			dep, ok := strings.CutPrefix(path, internalPrefix)
			if !ok {
				continue
			}
			if !registered {
				pass.Reportf(imp.Pos(), "package internal/%s is not registered in the layering DAG; add it to layerImports (internal/analysis/layering.go) with the layers it may import", self)
				continue
			}
			if !allowed[dep] {
				pass.Reportf(imp.Pos(), "import of internal/%s from internal/%s violates the layering DAG (internal/%s may import: %s)",
					dep, self, self, allowedList(self))
			}
		}
	}
}

func allowedImports(self string) (map[string]bool, bool) {
	deps, ok := layerImports[self]
	if !ok {
		return nil, false
	}
	set := make(map[string]bool, len(deps))
	for _, d := range deps {
		set[d] = true
	}
	return set, true
}

func allowedList(self string) string {
	deps := append([]string(nil), layerImports[self]...)
	if len(deps) == 0 {
		return "nothing under internal/"
	}
	sort.Strings(deps)
	return strings.Join(deps, ", ")
}
