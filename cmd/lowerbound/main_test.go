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

// TestLowerBoundLabelsTheEstimate checks the report's wording of the
// optimum: a lower bound only when it is the exact optimum (D = 16, 15
// requests, within Held–Karp's reach); otherwise (D = 32, 20 requests)
// the report says the optimum is not certified and calls no number a
// lower bound or an estimate.
func TestLowerBoundLabelsTheEstimate(t *testing.T) {
	exact := capture(t, config{logD: 4})
	if !strings.Contains(exact, "optimal cost lower bound: 16 (exact)") {
		t.Errorf("exact instance does not report its optimum as exact:\n%s", exact)
	}
	inexact := capture(t, config{logD: 5})
	if strings.Contains(inexact, "lower bound") || strings.Contains(inexact, "estimate") ||
		!strings.Contains(inexact, "not certified beyond 19 requests") {
		t.Errorf("inexact instance must say the optimum is not certified and call nothing a lower bound or an estimate:\n%s", inexact)
	}
}

// TestLowerBoundReportsMeasuredCostPerD checks the report's last line:
// arrow's measured cost over D (at D = 16 and k = 2 the instance costs
// exactly D), not a k·D "theory reference" the instance does not reach.
func TestLowerBoundReportsMeasuredCostPerD(t *testing.T) {
	out := capture(t, config{logD: 4})
	if strings.Contains(out, "k*D") || !strings.Contains(out, "measured cost(arrow)/D:   1.000") {
		t.Errorf("report must give the measured cost(arrow)/D, not k*D:\n%s", out)
	}
}

// TestLowerBoundRejectsBadFlags: a diameter exponent outside [1, 24] or a
// negative depth is an error run returns, which main prints before it
// exits 1, not a panic.
func TestLowerBoundRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name string
		cfg  config
		want string
	}{
		{"logd 30", config{logD: 30}, "logD=30 out of range [1,24]"},
		{"logd 0", config{logD: 0}, "logD=0 out of range [1,24]"},
		{"k -2", config{logD: 6, k: -2}, "k=-2, must be >= 1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var b strings.Builder
			err := run(c.cfg, &b)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("run(%+v): got error %v, want one containing %q", c.cfg, err, c.want)
			}
		})
	}
}
