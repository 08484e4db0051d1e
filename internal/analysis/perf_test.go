package analysis

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestPerfExperimentShape(t *testing.T) {
	ns := []int{8, 12}
	doc, err := PerfExperiment(PerfConfig{Sizes: ns, PerNode: 5, Seed: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := doc.Rows
	workloads := PerfWorkloads()
	wantRows := len(ns) * len(workloads) * len(baselineProtocols())
	if len(rows) != wantRows {
		t.Fatalf("got %d rows, want %d", len(rows), wantRows)
	}
	i := 0
	for _, n := range ns {
		for _, w := range workloads {
			for _, p := range baselineProtocols() {
				r := rows[i]
				i++
				if r.Protocol != p.Name() || r.N != n || r.Workload != w.Name {
					t.Fatalf("row %d = %s/n=%d/%s, want %s/n=%d/%s",
						i-1, r.Protocol, r.N, r.Workload, p.Name(), n, w.Name)
				}
				if want := int64(5 * n); r.Requests != want || r.Latency.Count != want || r.Hops.Count != want {
					t.Errorf("row %d (%s/n=%d/%s): requests %d, distribution counts %d/%d, want %d",
						i-1, r.Protocol, r.N, r.Workload, r.Requests, r.Latency.Count, r.Hops.Count, want)
				}
				if r.Latency.P50 > r.Latency.P99 || r.Latency.P99 > r.Latency.Max {
					t.Errorf("row %d: latency quantiles not monotone: %+v", i-1, r.Latency)
				}
			}
		}
	}
	if tbl := PerfLatencyTable(rows); len(tbl.Rows) != wantRows || !strings.Contains(tbl.Render(), "p999") {
		t.Error("latency table malformed")
	}
	if tbl := PerfHopsTable(rows); len(tbl.Rows) != wantRows {
		t.Error("hops table malformed")
	}
}

// The perf experiment is a deterministic artifact: same config, same
// document, at any worker count — the property that lets
// perf_golden.json be compared byte for byte. EventsPerSec is the one
// deliberate exception: it measures the host, not the simulation, so it
// is zeroed before the comparison here and in the golden.
func TestPerfExperimentDeterministic(t *testing.T) {
	cfg := PerfConfig{Sizes: []int{8}, PerNode: 4, Seed: 7}
	a, err := PerfExperiment(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PerfExperiment(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		a.Rows[i].EventsPerSec = 0
	}
	for i := range b.Rows {
		b.Rows[i].EventsPerSec = 0
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("perf rows differ across worker counts:\n%+v\n%+v", a, b)
	}
}

func TestPerfDocumentRoundTrip(t *testing.T) {
	cfg := PerfConfig{Sizes: []int{8}, PerNode: 3, Seed: 2}
	doc, err := PerfExperiment(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Schema != PerfSchema || !reflect.DeepEqual(doc.Config, cfg) || len(doc.Rows) != 3*len(baselineProtocols()) {
		t.Fatalf("document header: %+v", doc)
	}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var back Document[PerfConfig, PerfRow]
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc, back) {
		t.Fatalf("document did not round-trip:\n%+v\n%+v", doc, back)
	}
}
