package exp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"

	"shadow/internal/security"
	"shadow/internal/timing"
	"shadow/internal/trace"
)

// fastOpts keeps the experiment tests inside a CI-friendly budget; the cmd
// tool and benchmarks run the larger defaults.
func fastOpts() RunOpts {
	return RunOpts{Duration: 40 * timing.Microsecond, Cores: 2, Subarrays: 8, Seed: 7}
}

func TestTable2Rendering(t *testing.T) {
	tab := Table2()
	s := tab.String()
	for _, frag := range []string{"RAAIMT", "Hcnt=8K", "128", "32", "*"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Table II rendering missing %q:\n%s", frag, s)
		}
	}
	if len(tab.Rows) != 3 || len(tab.Rows[0]) != 4 {
		t.Fatalf("Table II shape %dx%d", len(tab.Rows), len(tab.Rows[0]))
	}
	// Secure diagonal marked, insecure corner not.
	if !strings.Contains(tab.Rows[2][1], "*") { // RAAIMT 32, Hcnt 8K
		t.Error("RAAIMT=32/Hcnt=8K should be secure")
	}
	if strings.Contains(tab.Rows[0][3], "*") { // RAAIMT 128, Hcnt 2K
		t.Error("RAAIMT=128/Hcnt=2K must not be secure")
	}
}

func TestTable3Rendering(t *testing.T) {
	tab := Table3()
	s := tab.String()
	for _, frag := range []string{"tRCD'", "tRD_RM", "17.7", "row-shuffle total"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Table III missing %q:\n%s", frag, s)
		}
	}
}

func TestAreaTable(t *testing.T) {
	s := AreaTable().String()
	for _, frag := range []string{"0.47%", "0.6%", "logic area"} {
		if !strings.Contains(s, frag) {
			t.Errorf("area table missing %q:\n%s", frag, s)
		}
	}
}

func TestShadowRAAIMTTable(t *testing.T) {
	want := map[int]int{16384: 256, 8192: 128, 4096: 64, 2048: 32}
	for h, r := range want {
		if got := ShadowRAAIMT(h); got != r {
			t.Errorf("ShadowRAAIMT(%d) = %d, want %d", h, got, r)
		}
	}
}

// TestShadowRAAIMTFallback pins the silent fallback: where no RAAIMT is
// secure, SHADOW runs at RAAIMT 8, the same value as the secure threshold
// one H_cnt above the edge.
func TestShadowRAAIMTFallback(t *testing.T) {
	for _, c := range []struct{ hcnt, secure int }{{256, 0}, {300, 0}, {301, 8}} {
		if got := security.SecureRAAIMT(c.hcnt); got != c.secure {
			t.Errorf("security.SecureRAAIMT(%d) = %d, want %d", c.hcnt, got, c.secure)
		}
		if got := ShadowRAAIMT(c.hcnt); got != 8 {
			t.Errorf("ShadowRAAIMT(%d) = %d, want 8", c.hcnt, got)
		}
	}
}

func TestTRRBlastAdjustment(t *testing.T) {
	// Wider radius -> lower RAAIMT (more frequent RFMs) for TRR schemes.
	if trrRAAIMT(64, 3) >= trrRAAIMT(64, 1) {
		t.Error("blast radius should reduce TRR RAAIMT")
	}
	p := timing.NewParams(timing.DDR4_2666)
	if trrRFMSlots(p, 1) != 1 {
		t.Error("radius-1 TRR should fit one tRFM")
	}
	if trrRFMSlots(p, 5) < 2 {
		t.Error("radius-5 TRR (10 refreshes) should need multiple tRFM slots")
	}
}

func TestPointBuildAllSchemes(t *testing.T) {
	geo := fastOpts().Geometry(timing.DDR5_4800)
	for _, s := range append([]Scheme{Baseline}, AllSchemes...) {
		pt := Point{Scheme: s, HCnt: 4096, Grade: timing.DDR5_4800, Seed: 1}
		p, dm, mc := pt.Build(geo, 150*timing.Microsecond)
		if err := p.Validate(); err != nil {
			t.Errorf("%s: invalid params: %v", s, err)
		}
		switch s {
		case Shadow, PARFM, MithrilPerf, MithrilArea:
			if dm == nil {
				t.Errorf("%s: missing device mitigator", s)
			}
		case BlockHammer, RRS:
			if mc == nil {
				t.Errorf("%s: missing MC-side policy", s)
			}
		default:
			// Baseline and DRR are timing-only: no mitigator of either kind.
			if dm != nil || mc != nil {
				t.Errorf("%s: unexpected mitigator for a timing-only scheme", s)
			}
		}
	}
}

// TestEverySchemeHasAFigure keeps AllSchemes to the schemes the paper's
// evaluation runs: each must be listed in a []Scheme literal of a figure or
// table runner in perf.go. A scheme no figure runs is dead weight in every
// layer below (its mitigator, the controller paths only it drives, its
// golden cases), so it is deleted rather than carried.
func TestEverySchemeHasAFigure(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(name string) *ast.File {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	// The constant naming each Scheme value, from config.go.
	consts := map[Scheme]string{}
	for _, d := range parse("config.go").Decls {
		g, ok := d.(*ast.GenDecl)
		if !ok || g.Tok != token.CONST {
			continue
		}
		for _, spec := range g.Specs {
			v := spec.(*ast.ValueSpec)
			if !isIdent(v.Type, "Scheme") {
				continue
			}
			for i, name := range v.Names {
				val, err := strconv.Unquote(v.Values[i].(*ast.BasicLit).Value)
				if err != nil {
					t.Fatal(err)
				}
				consts[Scheme(val)] = name.Name
			}
		}
	}
	// Every constant listed in a []Scheme literal of perf.go.
	listed := map[string]bool{}
	ast.Inspect(parse("perf.go"), func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		if arr, ok := lit.Type.(*ast.ArrayType); !ok || !isIdent(arr.Elt, "Scheme") {
			return true
		}
		for _, e := range lit.Elts {
			if id, ok := e.(*ast.Ident); ok {
				listed[id.Name] = true
			}
		}
		return true
	})
	for _, s := range AllSchemes {
		if !listed[consts[s]] {
			t.Errorf("scheme %q is in AllSchemes but in no figure's scheme list in perf.go", s)
		}
	}
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

func TestFig8SmokeShape(t *testing.T) {
	points, tab, err := Fig8(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 || len(tab.Rows) == 0 {
		t.Fatal("empty fig8")
	}
	for _, p := range points {
		if p.Rel <= 0 || p.Rel > 1.05 {
			t.Errorf("%s/%s: rel %.3f out of range", p.Workload, p.Scheme, p.Rel)
		}
		if p.Workload == "spec-LOW" && p.Rel < 0.97 {
			t.Errorf("spec-LOW %s slowed to %.3f; low-MPKI apps should be unaffected", p.Scheme, p.Rel)
		}
	}
}

func TestFig9TRCDMonotonic(t *testing.T) {
	o := fastOpts()
	points, _, err := Fig9(o)
	if err != nil {
		t.Fatal(err)
	}
	// At fixed workload and Hcnt, larger tRCD must not be faster (small
	// tolerance for simulation noise).
	byKey := map[string]map[int]float64{}
	for _, p := range points {
		k := p.Workload + "/" + strconv.Itoa(p.HCnt)
		if byKey[k] == nil {
			byKey[k] = map[int]float64{}
		}
		byKey[k][p.Blast] = p.Rel // Blast field carries tRCD for fig9 points
	}
	for k, m := range byKey {
		if m[27] > m[23]+0.01 {
			t.Errorf("%s: tRCD27 (%.3f) faster than tRCD23 (%.3f)", k, m[27], m[23])
		}
	}
}

func TestFig10ShadowFlat(t *testing.T) {
	points, _, err := Fig10(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	var minS, maxS = 2.0, 0.0
	for _, p := range points {
		if p.Scheme != Shadow {
			continue
		}
		if p.Rel < minS {
			minS = p.Rel
		}
		if p.Rel > maxS {
			maxS = p.Rel
		}
	}
	if maxS-minS > 0.03 {
		t.Errorf("SHADOW not flat across blast radii: [%.3f, %.3f]", minS, maxS)
	}
	// At radius >= 4 SHADOW must beat the TRR schemes.
	rel := map[Scheme]float64{}
	for _, p := range points {
		if p.Blast == 5 && p.Workload == "mix-high" {
			rel[p.Scheme] = p.Rel
		}
	}
	if rel[Shadow] < rel[PARFM] || rel[Shadow] < rel[MithrilArea] {
		t.Errorf("at blast 5 SHADOW (%.3f) should beat PARFM (%.3f) and Mithril (%.3f)",
			rel[Shadow], rel[PARFM], rel[MithrilArea])
	}
}

func TestFig12PowerShape(t *testing.T) {
	points, _, err := Fig12(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.RelPower < 1.0 || p.RelPower > 1.02 {
			t.Errorf("%s/%d: relative power %.4f out of the paper's band", p.Workload, p.HCnt, p.RelPower)
		}
	}
	// RFM/REF ratio grows as Hcnt falls.
	byW := map[string]map[int]float64{}
	for _, p := range points {
		if byW[p.Workload] == nil {
			byW[p.Workload] = map[int]float64{}
		}
		byW[p.Workload][p.HCnt] = p.RFMPerREF
	}
	for w, m := range byW {
		if m[2048] <= m[16384] {
			t.Errorf("%s: RFM/REF should grow as Hcnt falls (16K: %.2f, 2K: %.2f)", w, m[16384], m[2048])
		}
	}
}

// TestFig11PointCrossover checks the Figure 11 headline at one operating
// point with tracker warmup: below Hcnt 4K SHADOW outperforms both
// BlockHammer and RRS.
func TestFig11PointCrossover(t *testing.T) {
	if testing.Short() {
		t.Skip("needs ~10s of simulation")
	}
	// mix-high(4) includes mcf, whose hot rows drive the tracker schemes.
	o := RunOpts{Duration: 400 * timing.Microsecond, Warmup: timing.Millisecond, Cores: 4, Subarrays: 8, Seed: 3}
	rel := map[Scheme]float64{}
	for _, s := range []Scheme{Shadow, BlockHammer, RRS} {
		ws, _, err := runPoint(Point{Scheme: s, HCnt: 2048, Grade: timing.DDR5_4800, Seed: 3}, trace.MixHigh(o.Cores), o)
		if err != nil {
			t.Fatal(err)
		}
		rel[s] = ws
	}
	if rel[Shadow] < 0.95 {
		t.Errorf("SHADOW at 2K = %.3f, want > 0.95", rel[Shadow])
	}
	if rel[Shadow] <= rel[BlockHammer] || rel[Shadow] <= rel[RRS] {
		t.Errorf("SHADOW (%.3f) should beat BlockHammer (%.3f) and RRS (%.3f) at Hcnt 2K",
			rel[Shadow], rel[BlockHammer], rel[RRS])
	}
}

func TestAdversarialBounds(t *testing.T) {
	res, tab, err := Adversarial(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.TRCDOnly < 0.95 {
		t.Errorf("tRCD-only bound %.3f, paper reports >= 0.97", res.TRCDOnly)
	}
	if res.Full < 0.88 {
		t.Errorf("max-RFM bound %.3f, paper reports >= 0.91", res.Full)
	}
	if res.Full > res.TRCDOnly+0.01 {
		t.Error("adding RFMs cannot help performance")
	}
	if !strings.Contains(tab.String(), "tRCD'") {
		t.Error("bad rendering")
	}
}

func TestBaselineCacheHit(t *testing.T) {
	o := fastOpts()
	o.Seed = 991 // avoid keys other tests already populated
	for _, s := range []Scheme{Shadow, DRR} {
		_, _, err := runPoint(Point{Scheme: s, HCnt: 4096, Grade: timing.DDR4_2666, Seed: o.Seed}, trace.MixHigh(o.Cores), o)
		if err != nil {
			t.Fatal(err)
		}
		if entries := baselineEntries(o); len(entries) != 1 || entries[0].runs != 1 {
			t.Fatalf("after %s: %d baseline entries, want 1 simulated once", s, len(entries))
		}
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{
		Title:  "x",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "va,lue"}, {"2", `q"t`}},
		Notes:  []string{"n1"},
	}
	csv := tab.CSV()
	want := "a,b\n1,\"va,lue\"\n2,\"q\"\"t\"\n# n1\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
	// Real tables render without error and start with their header.
	if got := Table2().CSV(); !strings.HasPrefix(got, "RAAIMT,") {
		t.Fatalf("Table2 CSV prefix wrong: %q", got[:20])
	}
}

func TestFig8SweepOrderingStable(t *testing.T) {
	points, tab, err := Fig8Sweep(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// SHADOW stays within a few percent at every Hcnt.
	for _, p := range points {
		if p.Scheme == Shadow && p.Rel < 0.93 {
			t.Errorf("SHADOW at Hcnt %d = %.3f", p.HCnt, p.Rel)
		}
	}
}

// TestDeterministicTablesGolden pins the analytics-only tables: they depend
// on no simulation and must render byte-identically across runs.
func TestDeterministicTablesGolden(t *testing.T) {
	a, b := Table2().String(), Table2().String()
	if a != b {
		t.Fatal("Table2 not deterministic")
	}
	for _, frag := range []string{"6E-15 *", "~0 *", "1E+00"} {
		if !strings.Contains(a, frag) {
			t.Errorf("Table2 golden fragment %q missing:\n%s", frag, a)
		}
	}
	t3 := Table3().String()
	for _, frag := range []string{"17.7ns", "73.9ns", "4.0ns", "+29%"} {
		if !strings.Contains(t3, frag) {
			t.Errorf("Table3 golden fragment %q missing:\n%s", frag, t3)
		}
	}
	area := AreaTable().String()
	for _, frag := range []string{"0.35", "0.47%", "0.59%"} {
		if !strings.Contains(area, frag) {
			t.Errorf("AreaTable golden fragment %q missing:\n%s", frag, area)
		}
	}
}

func TestChartRendersPerfPoints(t *testing.T) {
	pts := []PerfPoint{
		{Workload: "mix-high", Scheme: Shadow, HCnt: 2048, Rel: 0.99},
		{Workload: "mix-high", Scheme: RRS, HCnt: 2048, Rel: 0.86},
		{Workload: "mix-high", Scheme: Shadow, HCnt: 4096, Rel: 0.99},
	}
	out := Chart("demo", pts).String()
	for _, frag := range []string{"demo", "mix-high Hcnt=2048", "shadow", "rrs", "0.860"} {
		if !strings.Contains(out, frag) {
			t.Errorf("chart missing %q:\n%s", frag, out)
		}
	}
}
