package analysis

import (
	"encoding/json"
	"testing"
)

// TestChurnExperimentDeterministicJSON is the acceptance pin: the churn
// document's JSON bytes are identical across runs and worker counts.
func TestChurnExperimentDeterministicJSON(t *testing.T) {
	cfg := ChurnConfig{N: 12, PerNode: 60, Rates: []float64{0, 1}, Seed: 5}
	marshal := func(workers int) string {
		doc, err := ChurnExperiment(cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	want := marshal(1)
	for _, workers := range []int{1, 4, 0} {
		if got := marshal(workers); got != want {
			t.Fatalf("workers=%d: churn JSON diverged", workers)
		}
	}
}

// TestChurnExperimentDegradesGracefully: at a positive fault rate every
// protocol still completes all requests, availability drops below the
// fault-free 1.0 but stays high, and the faulty cells show recovery
// activity.
func TestChurnExperimentDegradesGracefully(t *testing.T) {
	doc, err := ChurnExperiment(ChurnConfig{N: 16, PerNode: 80, Rates: []float64{0, 2}, Seed: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := doc.Rows
	protocols := map[string]bool{}
	var faultyCells, activity int
	for _, r := range rows {
		protocols[r.Protocol] = true
		if want := int64(16 * 80); r.Requests != want {
			t.Fatalf("%s rate=%g: completed %d of %d", r.Protocol, r.Rate, r.Requests, want)
		}
		if r.Rate == 0 {
			if r.Availability != 1 || r.Dropped != 0 {
				t.Fatalf("fault-free cell reports fault activity: %+v", r)
			}
			continue
		}
		faultyCells++
		if r.Availability < 0 || r.Availability > 1 {
			t.Fatalf("availability out of range: %+v", r)
		}
		if r.Dropped > 0 {
			activity++
			if r.Availability >= 1 {
				t.Fatalf("%s rate=%g: drops but availability 1: %+v", r.Protocol, r.Rate, r)
			}
		}
		if r.Protocol == "arrow" && r.Reissued > 0 && r.Repairs == 0 {
			t.Fatalf("arrow re-issued without repair: %+v", r)
		}
	}
	if want := len(baselineProtocols()); len(protocols) != want {
		t.Fatalf("expected %d protocols, saw %v", want, protocols)
	}
	if activity == 0 {
		t.Fatalf("no faulty cell dropped anything (%d faulty cells); scenario vacuous", faultyCells)
	}
}

// TestStabilizeExperimentComparesImplementations: the extended E14 rows
// carry both the oracle and the message-driven costs, agreeing on
// convergence and the surviving sink.
func TestStabilizeExperimentComparesImplementations(t *testing.T) {
	doc, err := StabilizeExperiment(StabilizeConfig{Sizes: []int{15, 31}, CorruptFrac: 0.3, Trials: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range doc.Rows {
		if !r.AllConverged || !r.SimConverged {
			t.Fatalf("n=%d: convergence failure: %+v", r.N, r)
		}
		if !r.SinksAgree {
			t.Fatalf("n=%d: oracle and message-driven repair disagree on sinks", r.N)
		}
		if r.AvgMessages <= 0 || r.AvgSimTime <= 0 {
			t.Fatalf("n=%d: degenerate message-driven cost: %+v", r.N, r)
		}
	}
}
