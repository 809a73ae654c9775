package shadow_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// buildCLIs builds shadowsim and shadowexp into dir.
func buildCLIs(t *testing.T, dir string) {
	t.Helper()
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	for _, cmd := range []string{"shadowsim", "shadowexp"} {
		build := exec.Command(goBin, "build", "-o", filepath.Join(dir, cmd), "./cmd/"+cmd)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", cmd, err, out)
		}
	}
}

// runCLI runs a built CLI from dir with a deadline, so a command that hangs
// fails its test instead of stalling the suite. It returns the exit status
// (-1 when killed at the deadline) and stderr.
func runCLI(t *testing.T, dir, cmd string, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var stderr bytes.Buffer
	run := exec.CommandContext(ctx, filepath.Join(dir, cmd), args...)
	run.Dir = dir
	run.Stderr = &stderr
	err := run.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("%s %v: %v", cmd, args, err)
	}
	return run.ProcessState.ExitCode(), stderr.String()
}

// TestCLIRejectsBadFlags pins the CLIs' flag validation: a negative -cores,
// a non-positive -hcnt or -acts, or an unknown -scheme, -grade, -format or
// -experiment is a usage error (exit 2, a message naming the flag's valid
// values), not a panic from exp.Point.Build or the mix constructors, not
// an unbounded attack run, and not a silent fallback to a default.
// shadowexp's -cores 0 still means "default 4", so it passes validation and
// reaches the next check.
func TestCLIRejectsBadFlags(t *testing.T) {
	dir := t.TempDir()
	buildCLIs(t, dir)
	cases := []struct {
		cmd  string
		args []string
		want string // substring of stderr
	}{
		{"shadowsim", []string{"-cores", "-3"}, "-cores must be non-negative"},
		{"shadowsim", []string{"-scheme", "bogus"}, `unknown scheme "bogus" (have: baseline shadow`},
		{"shadowsim", []string{"-scheme", "graphene"}, `unknown scheme "graphene" (have: baseline shadow parfm mithril-perf mithril-area drr blockhammer rrs)`},
		{"shadowsim", []string{"-grade", "bogus"}, `unknown grade "bogus" (have: ddr4 ddr5)`},
		{"shadowsim", []string{"-attack", "blast", "-acts", "0"}, "-acts must be positive"},
		{"shadowsim", []string{"-attack", "blast", "-acts", "-5"}, "-acts must be positive"},
		{"shadowsim", []string{"-hcnt", "0"}, "-hcnt must be positive"},
		{"shadowexp", []string{"-experiment", "fig8", "-cores", "-2"}, "-cores must be non-negative"},
		{"shadowexp", []string{"-experiment", "no-such", "-cores", "0"}, "unknown experiment"},
		{"shadowexp", []string{"-experiment", "table2", "-format", "xml"}, `unknown format "xml" (have: text csv)`},
	}
	for _, tc := range cases {
		code, stderr := runCLI(t, dir, tc.cmd, tc.args...)
		if code != 2 {
			t.Errorf("%s %v: exit status %d, want 2\n%s", tc.cmd, tc.args, code, stderr)
			continue
		}
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("%s %v: stderr lacks %q:\n%s", tc.cmd, tc.args, tc.want, stderr)
		}
		if strings.Contains(stderr, "panic:") {
			t.Errorf("%s %v: panicked instead of a usage error:\n%s", tc.cmd, tc.args, stderr)
		}
	}
}

// TestCLIOutputFiles pins the output path both CLIs share: an error exit
// still completes the pprof profiles, and the metrics, trace and flight
// files of a short run are JSON documents. It also drives shadowexp's
// inspector wiring: the -fleet-out status document of a parallel and of a
// sequential fig8 sweep accounts for every point.
func TestCLIOutputFiles(t *testing.T) {
	dir := t.TempDir()
	buildCLIs(t, dir)

	t.Run("profiles survive an error exit", func(t *testing.T) {
		code, stderr := runCLI(t, dir, "shadowexp", "-experiment", "table2",
			"-trace-out", filepath.Join(dir, "missing", "trace.json"),
			"-cpuprofile", "cpu.pprof", "-memprofile", "heap.pprof")
		if code != 1 {
			t.Fatalf("exit status %d, want 1\n%s", code, stderr)
		}
		for _, name := range []string{"cpu.pprof", "heap.pprof"} {
			if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
				t.Errorf("%s not written on the error exit (%v)", name, err)
			}
		}
	})

	// The parallel lane hands each fan-out worker its own recorder; the
	// sequential one (-flight forces it) ingests the shared recorder as w0.
	for _, lane := range []struct {
		name    string
		args    []string
		workers int
	}{
		{"fleet-out", []string{"-workers", "2"}, 2},
		{"fleet-out sequential", []string{"-flight", "64"}, 1},
	} {
		t.Run(lane.name, func(t *testing.T) {
			out := filepath.Join(dir, "fleet.json")
			args := append([]string{"-experiment", "fig8", "-duration-us", "20", "-fleet-out", out}, lane.args...)
			if code, stderr := runCLI(t, dir, "shadowexp", args...); code != 0 {
				t.Fatalf("shadowexp %v: exit status %d\n%s", args, code, stderr)
			}
			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			var fj struct {
				Workers        int    `json:"workers"`
				PointsExpected int    `json:"points_expected"`
				PointsDone     int    `json:"points_done"`
				Divergence     string `json:"divergence"`
				Completed      []struct {
					Point   string `json:"point"`
					CmdHash string `json:"cmd_hash"`
				} `json:"completed"`
			}
			if err := json.Unmarshal(data, &fj); err != nil {
				t.Fatalf("fleet.json is not JSON: %v", err)
			}
			if fj.PointsExpected <= 0 || fj.PointsDone != fj.PointsExpected {
				t.Errorf("points_done %d, points_expected %d: want equal and positive", fj.PointsDone, fj.PointsExpected)
			}
			if fj.Divergence != "" {
				t.Errorf("divergence on a healthy sweep: %s", fj.Divergence)
			}
			if fj.Workers != lane.workers {
				t.Errorf("workers = %d, want %d", fj.Workers, lane.workers)
			}
			for _, rec := range fj.Completed {
				if rec.CmdHash == "" || rec.CmdHash == "0x0000000000000000" {
					t.Errorf("completed point %s has no command hash", rec.Point)
				}
			}
		})
	}

	runs := map[string][]string{
		"shadowsim": {"-duration-us", "5"},
		"shadowexp": {"-experiment", "fig8", "-duration-us", "2"},
	}
	for cmd, run := range runs {
		t.Run(cmd, func(t *testing.T) {
			files := []string{cmd + "-metrics-out.json", cmd + "-trace-out.json", cmd + "-flight-out.json"}
			args := append([]string{"-metrics-out", files[0], "-trace-out", files[1],
				"-flight", "64", "-flight-out", files[2]}, run...)
			if code, stderr := runCLI(t, dir, cmd, args...); code != 0 {
				t.Fatalf("%s %v: exit status %d\n%s", cmd, args, code, stderr)
			}
			for _, name := range files {
				data, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				var doc any
				if err := json.Unmarshal(data, &doc); err != nil {
					t.Errorf("%s is not JSON: %v", name, err)
				}
			}
		})
	}
}

// TestCLIWarnsInsecureFallback: at an H_cnt with no secure RAAIMT,
// exp.ShadowRAAIMT falls back to RAAIMT 8, and shadowsim says so on stderr
// for the schemes whose threshold derives from it, and only for those.
func TestCLIWarnsInsecureFallback(t *testing.T) {
	dir := t.TempDir()
	buildCLIs(t, dir)
	const warning = "no secure RAAIMT"
	for _, tc := range []struct {
		scheme, hcnt string
		warn         bool
	}{
		{"shadow", "256", true},
		{"parfm", "256", true},
		{"mithril-perf", "256", false},
		{"shadow", "4096", false},
	} {
		code, stderr := runCLI(t, dir, "shadowsim", "-scheme", tc.scheme, "-hcnt", tc.hcnt, "-duration-us", "2")
		if code != 0 {
			t.Fatalf("shadowsim -scheme %s -hcnt %s: exit status %d\n%s", tc.scheme, tc.hcnt, code, stderr)
		}
		if got := strings.Contains(stderr, warning); got != tc.warn {
			t.Errorf("shadowsim -scheme %s -hcnt %s: warned %v, want %v\n%s", tc.scheme, tc.hcnt, got, tc.warn, stderr)
		}
	}
}
