package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestTypeErrorFailsTheRun builds shadowvet and runs it over a scratch
// module: clean, then with a package that does not type-check. A type error
// must fail the run with the load-error status and name the position, not
// warn and analyze on partial type information.
func TestTypeErrorFailsTheRun(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "shadowvet")
	build := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building shadowvet: %v\n%s", err, out)
	}
	mod := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(mod, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	run := func() (int, string) {
		t.Helper()
		var stderr bytes.Buffer
		cmd := exec.Command(bin, "./...")
		cmd.Dir = mod
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatal(err)
		}
		return cmd.ProcessState.ExitCode(), stderr.String()
	}

	write("go.mod", "module probe\n\ngo 1.22\n")
	write("ok/ok.go", "package ok\n\n// N is fine.\nconst N = 1\n")
	if code, stderr := run(); code != 0 {
		t.Fatalf("clean module: exit status %d, want 0\n%s", code, stderr)
	}

	write("bad/bad.go", "package bad\n\n// S does not type-check.\nvar S int = \"s\"\n")
	code, stderr := run()
	if code != 2 {
		t.Errorf("module with a type error: exit status %d, want 2\n%s", code, stderr)
	}
	if want := "bad.go:4:13"; !strings.Contains(stderr, want) || !strings.Contains(stderr, "type error") {
		t.Errorf("stderr does not report the type error at %s:\n%s", want, stderr)
	}
}
