package shadow_test

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestCLIRejectsBadFlags pins the CLIs' flag validation: a negative -cores,
// an unknown -scheme or an unknown -grade is a usage error (exit 2, a
// message naming the flag's valid values), not a panic from the scheme
// builder or the mix constructors and not a silent fallback to a default.
// shadowexp's -cores 0 still means "default 4", so it passes validation and
// reaches the next check.
func TestCLIRejectsBadFlags(t *testing.T) {
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	dir := t.TempDir()
	for _, cmd := range []string{"shadowsim", "shadowexp"} {
		build := exec.Command(goBin, "build", "-o", filepath.Join(dir, cmd), "./cmd/"+cmd)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", cmd, err, out)
		}
	}
	cases := []struct {
		cmd  string
		args []string
		want string // substring of stderr
	}{
		{"shadowsim", []string{"-cores", "-3"}, "-cores must be non-negative"},
		{"shadowsim", []string{"-scheme", "bogus"}, `unknown scheme "bogus" (have: baseline shadow`},
		{"shadowsim", []string{"-grade", "bogus"}, `unknown grade "bogus" (have: ddr4 ddr5)`},
		{"shadowexp", []string{"-experiment", "fig8", "-cores", "-2"}, "-cores must be non-negative"},
		{"shadowexp", []string{"-experiment", "no-such", "-cores", "0"}, "unknown experiment"},
	}
	for _, tc := range cases {
		var stderr bytes.Buffer
		run := exec.Command(filepath.Join(dir, tc.cmd), tc.args...)
		run.Stderr = &stderr
		err := run.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s %v: got %v, want exit status 2\n%s", tc.cmd, tc.args, err, stderr.String())
			continue
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%s %v: stderr lacks %q:\n%s", tc.cmd, tc.args, tc.want, stderr.String())
		}
		if strings.Contains(stderr.String(), "panic:") {
			t.Errorf("%s %v: panicked instead of a usage error:\n%s", tc.cmd, tc.args, stderr.String())
		}
	}
}
