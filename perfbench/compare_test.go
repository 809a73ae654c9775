package main

import (
	"maps"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	for _, c := range []struct {
		name           string
		parent, change []float64
		lower          bool
		bound          float64
		want           string
		wins           int
	}{
		{"same code", steady, steady, true, 0.1, "same", 0},
		{"faster in every pair", steady,
			[]float64{0.90, 0.91, 0.89, 0.90, 0.92, 0.88, 0.90, 0.91, 0.89, 0.90}, true, 0.1, "improved", 10},
		{"faster median but loses two pairs", steady,
			[]float64{0.90, 0.91, 0.89, 0.90, 0.92, 0.88, 0.90, 0.91, 1.05, 1.05}, true, 0.1, "same", 8},
		{"gap inside the parent's spread",
			[]float64{1.0, 1.1, 0.9, 1.0, 1.1, 0.9, 1.0, 1.1, 0.9, 1.0},
			[]float64{0.95, 1.05, 0.85, 0.95, 1.05, 0.85, 0.95, 1.05, 0.85, 0.95}, true, 0.25, "same", 10},
		{"slower beyond the bound", steady,
			[]float64{1.2, 1.2, 1.2, 1.2, 1.2, 1.2, 1.2, 1.2, 1.2, 1.2}, true, 0.1, "regressed", 0},
		{"slower within the bound", steady,
			[]float64{1.05, 1.05, 1.05, 1.05, 1.05, 1.05, 1.05, 1.05, 1.05, 1.05}, true, 0.1, "same", 0},
		{"higher is better",
			steady, []float64{1.2, 1.2, 1.2, 1.2, 1.2, 1.2, 1.2, 1.2, 1.2, 1.2}, false, 0.1, "improved", 10},
		{"parent spread wider than bound",
			[]float64{1.0, 1.4, 0.7, 1.0, 1.3, 0.8, 1.0, 1.2, 0.7, 1.1},
			[]float64{1.3, 1.3, 1.3, 1.3, 1.3, 1.3, 1.3, 1.3, 1.3, 1.3}, true, 0.1, "unresolved", 1},
		{"wide spread but every change run better",
			[]float64{1.0, 1.4, 0.7, 1.0, 1.3, 0.8, 1.0, 1.2, 0.7, 1.1},
			[]float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}, true, 0.1, "improved", 10},
		{"too few pairs", steady[:9],
			[]float64{1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5}, true, 0.1, "unresolved", 0},
	} {
		got, wins, pairs := verdict(c.parent, c.change, c.lower, c.bound)
		if got != c.want || wins != c.wins || pairs != len(c.parent) {
			t.Errorf("%s: verdict = %s, %d/%d wins; want %s, %d/%d", c.name, got, wins, pairs, c.want, c.wins, len(c.parent))
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	bench := write("bench.json", `{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}`)
	line := func(wl string, v float64, failed int) string {
		f := strconv.Itoa(failed)
		return `{"report":{"workload":"` + wl + `","trace":false,"attempted":35,"failed":` + f +
			`,"metrics":{"wall_s":{"median":` + strconv.FormatFloat(v, 'f', -1, 64) + `}}}}` + "\n" +
			`{"correct":` + strconv.FormatBool(failed == 0) + `,"attempted":35,"failed":` + f + `,"metrics":{}}` + "\n"
	}
	rows := func(parent, change string) (map[string]string, bool) {
		var out strings.Builder
		regressed, err := compareFiles(&out, bench, write("p.out", parent), write("c.out", change))
		if err != nil {
			t.Fatal(err)
		}
		verdicts := map[string]string{}
		for _, row := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
			f := strings.Fields(row)
			verdicts[f[0]] = f[len(f)-1]
		}
		return verdicts, regressed
	}

	var parent, change string
	for i := 0; i < 10; i++ {
		parent += line("a", 1.0, 0) + line("b", 1.0, 0) + line("c", 1.0, 1)
		change += line("a", 0.8, 0) + line("b", 1.3, 0) + line("c", 0.8, 1)
	}
	got, regressed := rows(parent, change)
	if want := map[string]string{"a": "improved", "b": "regressed", "c": "improved"}; !maps.Equal(got, want) {
		t.Errorf("verdicts = %v, want %v", got, want)
	}
	if !regressed {
		t.Error("a 30% slowdown on b was not reported as a regression")
	}

	// Faster, but on fewer passing points: the medians rest on survivors,
	// so the gain does not count and the row is flagged. On b no change
	// repetition passes, so its runs print only a report without metrics.
	parent, change = "", ""
	for i := 0; i < 10; i++ {
		parent += line("a", 1.0, 0) + line("b", 1.0, 0)
		fails := 0
		if i%3 == 0 {
			fails = 35
		}
		change += line("a", 0.8, fails) +
			`{"report":{"workload":"b","trace":false,"attempted":35,"failed":35,"metrics":{}}}` + "\n"
	}
	got, regressed = rows(parent, change)
	if want := map[string]string{"a": "more-failures", "b": "more-failures"}; !maps.Equal(got, want) || !regressed {
		t.Errorf("changes that fail more points: verdicts %v, regressed %v; want %v, true", got, regressed, want)
	}
}
