package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRunSmoke generates Cora ÷12 cut into three parties, writes it with
// -out, and reloads the written file with -in.
func TestRunSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cora.json")
	if err := run([]string{"-dataset", "cora", "-divisor", "12", "-parties", "3", "-out", path}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("-out wrote no graph: %v", err)
	}
	if err := run([]string{"-in", path, "-parties", "3"}); err != nil {
		t.Fatalf("reloading the written graph: %v", err)
	}
}
