package analysis

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestWriteSARIF round-trips real findings from the fixture corpus
// through the -sarif encoding and checks the decoded log field by
// field: every result must resolve to a declared rule and point at the
// finding's exact file, line, and column.
func TestWriteSARIF(t *testing.T) {
	fixtures := []struct{ name, path string }{
		{"panicmsg", ""},
		{"cmderr", ""},
		{"nilguard", "shadow/internal/obs/flight"},
	}
	var pkgs []*Package
	for _, f := range fixtures {
		pkgs = append(pkgs, loadFixture(t, f.name, f.path))
	}
	diags := RunAnalyzers(pkgs, All())
	if len(diags) == 0 {
		t.Fatal("fixture corpus produced no findings")
	}

	var buf bytes.Buffer
	if err := WriteSARIF(&buf, diags); err != nil {
		t.Fatal(err)
	}

	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID  string `json:"ruleId"`
				Level   string `json:"level"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}

	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-schema-2.1.0") {
		t.Errorf("log should declare SARIF 2.1.0, got version %q schema %q", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "shadowvet" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}

	ruleIDs := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		if ruleIDs[r.ID] {
			t.Errorf("duplicate rule %q", r.ID)
		}
		ruleIDs[r.ID] = true
		if strings.TrimSpace(r.ShortDescription.Text) == "" {
			t.Errorf("rule %q has no description", r.ID)
		}
	}
	for _, a := range All() {
		if !ruleIDs[a.Name] {
			t.Errorf("analyzer %s missing from the rule table", a.Name)
		}
	}
	if !ruleIDs[WaiverAnalyzerName] {
		t.Errorf("the %s pseudo-rule must be declared (hygiene findings reference it)", WaiverAnalyzerName)
	}

	if len(run.Results) != len(diags) {
		t.Fatalf("decoded %d results, want %d", len(run.Results), len(diags))
	}
	for i, r := range run.Results {
		d := diags[i]
		if r.RuleID != d.Analyzer || r.Message.Text != d.Message || r.Level != "error" {
			t.Errorf("result %d mismatch: %+v vs %v", i, r, d)
		}
		if !ruleIDs[r.RuleID] {
			t.Errorf("result %d references undeclared rule %q", i, r.RuleID)
		}
		if len(r.Locations) != 1 {
			t.Fatalf("result %d has %d locations, want 1", i, len(r.Locations))
		}
		loc := r.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI != d.Pos.Filename ||
			loc.Region.StartLine != d.Pos.Line || loc.Region.StartColumn != d.Pos.Column {
			t.Errorf("result %d location mismatch: %+v vs %v", i, loc, d.Pos)
		}
	}
}

// TestWriteSARIFEmpty: a clean run still emits a structurally complete
// log — one run, full rule table, empty (non-null) results — so CI
// uploads succeed with or without findings.
func TestWriteSARIFEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Runs []struct {
			Results []json.RawMessage `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	if log.Runs[0].Results == nil {
		t.Error("results must be [] when clean, not null")
	}
	if !strings.Contains(buf.String(), `"results": []`) {
		t.Errorf("expected an empty results array in:\n%s", buf.String())
	}
}
