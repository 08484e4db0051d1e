package main

import (
	"bufio"
	"os"
	"testing"
)

// TestMainInvariantLine runs the example on the live runtime and checks
// only its first line, which states the invariant; the lines after it
// depend on goroutine scheduling and differ between runs.
func TestMainInvariantLine(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	main()
	w.Close()
	line, err := bufio.NewReader(r).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if want := "100 fetch-and-increment ops across 20 nodes: all values unique and gap-free\n"; line != want {
		t.Errorf("first line %q, want %q", line, want)
	}
}
