package main

import (
	"strings"
	"testing"
)

func capture(t *testing.T, cfg config) string {
	t.Helper()
	var b strings.Builder
	if err := run(cfg, &b); err != nil {
		t.Fatalf("run(%+v): %v", cfg, err)
	}
	return b.String()
}

// TestLowerBoundSmoke runs the main path on a tiny diameter and checks
// the report is non-empty, complete, and stable across runs.
func TestLowerBoundSmoke(t *testing.T) {
	cfg := config{logD: 4}
	out := capture(t, cfg)
	for _, want := range []string{
		"Theorem 4.1 instance: path diameter D=16",
		"arrow total latency:", "optimal cost upper bound:", "measured ratio:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	if again := capture(t, cfg); again != out {
		t.Error("report not stable across runs")
	}
}

// TestLowerBoundDump covers the -dump path: every generated request is
// listed.
func TestLowerBoundDump(t *testing.T) {
	out := capture(t, config{logD: 3, dump: true})
	if !strings.Contains(out, "r0") || !strings.Contains(out, "= (v") {
		t.Errorf("dump output missing request lines:\n%s", out)
	}
}

// TestLowerBoundExplicitDepth covers the -k override.
func TestLowerBoundExplicitDepth(t *testing.T) {
	out := capture(t, config{logD: 4, k: 2})
	if !strings.Contains(out, "recursion depth k=2") {
		t.Errorf("explicit depth not honoured:\n%s", out)
	}
}

// TestLowerBoundLabelsTheEstimate checks the report's wording of
// Bounds.Lower: a lower bound only when it is the exact optimum (D = 16,
// 15 requests, within Held–Karp's reach), and an uncertified estimate
// otherwise (D = 32, 20 requests), because ManhattanMST/12 can exceed
// the optimum.
func TestLowerBoundLabelsTheEstimate(t *testing.T) {
	exact := capture(t, config{logD: 4})
	if !strings.Contains(exact, "optimal cost lower bound: 16 (exact)") {
		t.Errorf("exact instance does not report its optimum as exact:\n%s", exact)
	}
	estimate := capture(t, config{logD: 5})
	if strings.Contains(estimate, "lower bound") || !strings.Contains(estimate, "optimal cost estimate:") ||
		!strings.Contains(estimate, "uncertified") {
		t.Errorf("inexact instance must label ManhattanMST/12 an uncertified estimate, not a lower bound:\n%s", estimate)
	}
}
