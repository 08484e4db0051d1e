// Command arrowlint statically enforces the repo's determinism,
// hot-path, and protocol invariants (see internal/lint). It speaks the
// `go vet -vettool` driver protocol and is usable two ways:
//
//	go vet -vettool=$(which arrowlint) ./...   # as a vet plugin
//	arrowlint ./...                            # standalone
//
// Standalone mode simply re-execs `go vet -vettool=<self>` with the
// same package patterns, so both paths run the identical protocol:
// per-package vet configs, compiler export data for imports, build
// cache integration. The whole suite always runs; a finding that is
// meant is silenced where it occurs, with an
// `//arrow:allow <check> <reason>` directive.
//
// Findings exit 2; usage or typecheck errors exit 1; clean exits 0.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// The -V=full handshake must work before any other flag handling:
	// cmd/go probes it to compute the tool's build ID for caching.
	if len(args) == 1 && args[0] == "-V=full" {
		return printVersion()
	}
	fs := flag.NewFlagSet("arrowlint", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	printFlags := fs.Bool("flags", false, "print analyzer flags in JSON (vet protocol handshake)")
	fs.String("V", "", "print version and exit (cmd/go protocol)")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *printFlags {
		// The vet handshake asks which flags to pass through: none.
		fmt.Println("[]")
		return 0
	}
	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return lint.RunVet(os.Stderr, rest[0])
	}
	return standalone(rest)
}

// standalone re-execs `go vet -vettool=<self>` so package loading,
// export data, and caching all come from the real toolchain.
func standalone(patterns []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "arrowlint: %v\n", err)
		return 1
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + self}, patterns...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	cmd.Stdin = os.Stdin
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintf(os.Stderr, "arrowlint: %v\n", err)
		return 1
	}
	return 0
}

// printVersion implements the cmd/go -V=full handshake: the output must
// be "<name> version <vers> ... buildID=<id>", where the ID changes
// whenever the tool's behavior could. Hashing the executable gives
// exactly that: rebuild arrowlint and every cached vet verdict is
// invalidated.
func printVersion() int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "arrowlint: %v\n", err)
		return 1
	}
	f, err := os.Open(self)
	if err != nil {
		fmt.Fprintf(os.Stderr, "arrowlint: %v\n", err)
		return 1
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintf(os.Stderr, "arrowlint: %v\n", err)
		return 1
	}
	fmt.Printf("arrowlint version devel buildID=%x\n", h.Sum(nil))
	return 0
}
