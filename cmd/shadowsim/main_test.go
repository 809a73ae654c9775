package main

import (
	"testing"

	"shadow/internal/dram"
)

func TestResolveWorkload(t *testing.T) {
	geo := dram.DefaultGeometry(false)
	cases := []struct {
		name  string
		cores int
		want  int
	}{
		{"mix-high", 4, 4},
		{"mix-blend", 6, 6},
		{"mix-random", 3, 3},
		{"random-stream", 4, 1},
		{"mcf", 4, 1},
	}
	for _, c := range cases {
		ps, err := resolveWorkload(c.name, c.cores, geo)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if len(ps) != c.want {
			t.Errorf("%s: %d profiles, want %d", c.name, len(ps), c.want)
		}
	}
	if _, err := resolveWorkload("no-such-workload", 1, geo); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestSchemeNamesComplete(t *testing.T) {
	names := schemeNames()
	if len(names) < 7 {
		t.Fatalf("only %d schemes listed", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate scheme %q", n)
		}
		seen[n] = true
	}
	for _, want := range []string{"shadow", "parfm", "mithril-perf", "mithril-area", "drr", "blockhammer", "rrs"} {
		if !seen[want] {
			t.Errorf("scheme %q missing", want)
		}
	}
}
