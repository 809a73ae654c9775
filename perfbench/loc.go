package main

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// goLines counts the lines of non-test Go files per module of the tree at
// root: each internal/<module> (its subpackages included), cmd, examples,
// and the root package. The report carries it so the code size of every
// layer has a trajectory next to its speed.
func goLines(root string) (map[string]int, error) {
	lines := map[string]int{}
	for _, dir := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !isSource(path) {
				return err
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			parts := strings.Split(filepath.ToSlash(rel), "/")
			module := parts[0]
			if module == "internal" {
				module = parts[1]
			}
			return addLines(lines, module, path)
		})
		if err != nil {
			return nil, err
		}
	}
	top, err := filepath.Glob(filepath.Join(root, "*.go"))
	if err != nil {
		return nil, err
	}
	for _, path := range top {
		if isSource(path) {
			if err := addLines(lines, "root", path); err != nil {
				return nil, err
			}
		}
	}
	return lines, nil
}

func isSource(path string) bool {
	return strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go")
}

func addLines(lines map[string]int, module, path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	lines[module] += bytes.Count(b, []byte("\n"))
	return nil
}
