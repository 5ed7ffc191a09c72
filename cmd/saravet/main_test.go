package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// vet runs the saravet CLI entry point against a testdata mini-module
// and returns the exit code plus captured output.
func vet(t *testing.T, module string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	dir := filepath.Join("testdata", module)
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("fixture module %s: %v", module, err)
	}
	var out, errb bytes.Buffer
	code = run(args, dir, &out, &errb)
	return code, out.String(), errb.String()
}

func TestCleanModulePasses(t *testing.T) {
	code, out, errb := vet(t, "clean", "./...")
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	if out != "" {
		t.Fatalf("clean module produced findings:\n%s", out)
	}
}

// TestWakeBugRejected proves saravet rejects the stale now-relative
// NextActivity bound pattern (the PR 7 wake-contract bug class).
func TestWakeBugRejected(t *testing.T) {
	code, out, errb := vet(t, "wakebug", "./...")
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	if !strings.Contains(out, "wakebound:") || !strings.Contains(out, "Source.NextActivity") {
		t.Fatalf("missing wakebound finding for Source.NextActivity:\n%s", out)
	}
}

// TestAllocBugRejected proves saravet rejects an injected hot-path
// allocation.
func TestAllocBugRejected(t *testing.T) {
	code, out, errb := vet(t, "allocbug", "./...")
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	if !strings.Contains(out, "hotpathalloc:") || !strings.Contains(out, "Step") {
		t.Fatalf("missing hotpathalloc finding for Step:\n%s", out)
	}
}

// TestEscapeModeFlagsAllocBug proves the -escape mode reports
// compiler-verified heap escapes inside annotated functions.
func TestEscapeModeFlagsAllocBug(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping go build -gcflags=-m run")
	}
	code, out, errb := vet(t, "allocbug", "-escape", "./...")
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	if !strings.Contains(out, "escape:") || !strings.Contains(out, "Step") {
		t.Fatalf("missing escape finding for Step:\n%s", out)
	}
}

// TestEscapeModeCleanModule proves -escape stays quiet when nothing in
// an annotated function escapes.
func TestEscapeModeCleanModule(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping go build -gcflags=-m run")
	}
	code, out, errb := vet(t, "clean", "-escape", "./...")
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
}

func TestUsageErrorExitsTwo(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, ".", &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2\nstderr:\n%s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "Exit codes: 0 clean, 1 findings, 2 usage") {
		t.Fatalf("usage text not printed:\n%s", errb.String())
	}
}

func TestLoadErrorExitsTwo(t *testing.T) {
	dir := t.TempDir() // no go.mod, no packages
	var out, errb bytes.Buffer
	if code := run([]string{"./..."}, dir, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
}

func TestVetDriverProtocol(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-flags"}, ".", &out, &errb); code != 0 {
		t.Fatalf("-flags exit %d, want 0", code)
	}
	if strings.TrimSpace(out.String()) != "[]" {
		t.Fatalf("-flags printed %q, want []", out.String())
	}

	out.Reset()
	if code := run([]string{"-V=full"}, ".", &out, &errb); code != 0 {
		t.Fatalf("-V=full exit %d, want 0", code)
	}
	if !strings.HasPrefix(out.String(), "saravet version ") {
		t.Fatalf("-V=full printed %q", out.String())
	}

	out.Reset()
	if code := run([]string{"missing.cfg"}, ".", &out, &errb); code != 2 {
		t.Fatalf("unreadable unit config: exit %d, want 2", code)
	}
}

// TestVetToolIntegration drives saravet through the real go vet
// -vettool protocol against the seeded wake-bug module.
func TestVetToolIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping vettool build + go vet run")
	}
	bin := filepath.Join(t.TempDir(), "saravet")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building saravet: %v\n%s", err, out)
	}
	abs, err := filepath.Abs(filepath.Join("testdata", "wakebug"))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = abs
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool passed on the wake-bug module:\n%s", out)
	}
	if !strings.Contains(string(out), "wakebound") {
		t.Fatalf("go vet output lacks the wakebound finding:\n%s", out)
	}

	cmd = exec.Command("go", "vet", "-vettool="+bin, "./...")
	cleanDir, err := filepath.Abs(filepath.Join("testdata", "clean"))
	if err != nil {
		t.Fatal(err)
	}
	cmd.Dir = cleanDir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool failed on the clean module: %v\n%s", err, out)
	}
}
