package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// buildArrowlint compiles the arrowlint binary into a temp dir and
// returns its path. Building through the real toolchain (rather than
// calling run() in-process) is the point: the meta-tests below exercise
// the -V=full / -flags / vet.cfg protocol exactly as CI does.
func buildArrowlint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "arrowlint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build arrowlint: %v\n%s", err, out)
	}
	return bin
}

// TestArrowlintSelfClean is the lint gate on the repo itself: the full
// suite, driven through `go vet -vettool`, must report nothing. Every
// intentional wall-clock, RNG, or heap site carries an //arrow:allow
// directive, so a finding here is either a real regression or a missing
// annotation — both are failures.
func TestArrowlintSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and vets the whole repo; skipped in -short")
	}
	bin := buildArrowlint(t)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = filepath.Join("..", "..")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("arrowlint found issues in the repo:\n%s\n(%v)", out, err)
	}
}

// TestArrowlintReportsThroughVet proves the vet driver protocol wiring
// end to end: a scratch module with a known determinism violation must
// make `go vet -vettool=arrowlint` fail and print the diagnostic. This
// keeps TestArrowlintSelfClean honest — if the vet.cfg handling ever
// broke so that findings were silently dropped, the self-clean test
// would pass vacuously and this one would catch it.
func TestArrowlintReportsThroughVet(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and a scratch module; skipped in -short")
	}
	bin := buildArrowlint(t)
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module scratch\n\ngo 1.21\n")
	writeFile(t, filepath.Join(dir, "bad.go"), `// Package bad opts into determinism checking and then violates it.
//
//arrow:deterministic
package bad

import "time"

// Stamp leaks wall-clock time into a deterministic package.
func Stamp() time.Time { return time.Now() }
`)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool exited 0 on a package with a known violation:\n%s", out)
	}
	if !bytes.Contains(out, []byte("time.Now in deterministic package bad")) {
		t.Fatalf("diagnostic missing from vet output:\n%s", out)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
