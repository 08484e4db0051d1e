package main

import (
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestSelectExperiments: -exp resolves against analysis.Experiments —
// one entry by name, "all" every entry not marked opt-in in table order,
// and an unknown name an error that lists the known ones.
func TestSelectExperiments(t *testing.T) {
	var wantAll []string
	for _, e := range analysis.Experiments {
		one, err := selectExperiments(e.Name)
		if err != nil || len(one) != 1 || one[0].Name != e.Name {
			t.Errorf("-exp %s selected %d entries (err %v)", e.Name, len(one), err)
		}
		if !e.OptIn {
			wantAll = append(wantAll, e.Name)
		}
	}
	all, err := selectExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	var gotAll []string
	for _, e := range all {
		gotAll = append(gotAll, e.Name)
	}
	if got, want := strings.Join(gotAll, " "), strings.Join(wantAll, " "); got != want {
		t.Errorf("-exp all visits %q, want the table order without opt-in entries %q", got, want)
	}
	if len(wantAll) == len(analysis.Experiments) || strings.Contains(strings.Join(gotAll, " "), "scale") {
		t.Error("scale must be opt-in: -exp all would run the million-node tier")
	}

	_, err = selectExperiments("fig12")
	if err == nil {
		t.Fatal("unknown -exp accepted")
	}
	for _, name := range append(wantAll, "scale", "all", `"fig12"`) {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown -exp error %q does not mention %s", err, name)
		}
	}
}
