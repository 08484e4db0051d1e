package analysis

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/{perf,scale,shard,churn}_golden.json from the current experiments")

// TestDocumentsGolden regenerates the four versioned arrowbench -json
// documents and compares them byte for byte against testdata. Every
// number in them is a pure function of (topology, workload, seed), so a
// one-tick change in any protocol's makespan, one extra far-wheel push
// or one request counted twice fails here, exactly — there is no
// tolerance. The flags each file was generated with are the cfg literals
// below (perf: -sizes 64,76 -pernode 500; scale: -sizes 2000,5000
// -pernode 20; shard: -objects 16,128 -pernode 50; churn: -pernode 120;
// all -seed 1). The only host-dependent values — wall-clock throughput,
// and for scale the allocation columns — are zeroed on the rows before
// the document is marshalled, so the files hold 0 there.
//
// A change of behaviour that is meant moves a golden with
//
//	go test ./internal/analysis -run Golden -update
//
// and commits the diff; on a clean tree that command leaves git diff
// empty.
//
// Each gate was shown to bite: every mutation below was applied on its
// own and fails `go test ./...` (not only CI) at the tests named.
//
//	mutation                                        fails
//	shard driver's default think time 1 -> 2        all four goldens (perf makespan 3031 -> 3608; also
//	                                                shard.TestClosedLoopGolden, trace.TestChaosLogGolden)
//	sim ringBits 9 -> 8                             scale golden alone (far_pushes 2 -> 34): perf, shard
//	                                                and churn stay green, as does every sim test — work
//	                                                counters are gated on their own
//	engine.Ivy{} back in baselineProtocols()        perf and churn goldens (an extra row per cell), and
//	                                                TestBaselinesClosedLoop; after -update,
//	                                                TestGoldenProtocolColumnsDistinct (ivy = nta)
//	box a value per call in Simulator.send          root TestSimSendDispatchZeroAlloc, all three cases
//	                                                (200 512 allocations), shard.TestReplayAllocsPerRequest
//	delete BenchmarkShardHandle                     lint.TestHotpathCoverage
//	//arrow:hotpath on stats.histIndex              lint.TestHotpathCoverage (package not in the manifest)
func TestDocumentsGolden(t *testing.T) {
	docs := []struct {
		name  string
		build func() (any, error)
	}{
		{"perf", func() (any, error) {
			doc, err := PerfExperiment(PerfConfig{Sizes: []int{64, 76}, PerNode: 500, Seed: 1}, 0)
			for i := range doc.Rows {
				doc.Rows[i].EventsPerSec = 0
			}
			return doc, err
		}},
		{"scale", func() (any, error) {
			doc, err := ScaleExperiment(ScaleConfig{Sizes: []int{2000, 5000}, PerNode: 20, Seed: 1})
			for i := range doc.Rows {
				r := &doc.Rows[i]
				r.EventsPerSec, r.AllocBytes, r.BytesPerNode = 0, 0, 0
			}
			return doc, err
		}},
		{"shard", func() (any, error) {
			return ShardExperiment(ShardConfig{Objects: []int{16, 128}, PerNode: 50, Seed: 1}, 0)
		}},
		{"churn", func() (any, error) {
			return ChurnExperiment(ChurnConfig{N: 24, PerNode: 120, Rates: []float64{0, 0.5, 1, 2}, Seed: 1}, 0)
		}},
	}
	for _, d := range docs {
		t.Run(d.name, func(t *testing.T) {
			doc, err := d.build()
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(doc, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n') // arrowbench prints the document with Println
			path := filepath.Join("testdata", d.name+"_golden.json")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(got, want) {
				return
			}
			gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
				if gotLines[i] != wantLines[i] {
					t.Fatalf("%s line %d: got %q, golden has %q (rerun with -update only if the change is meant)",
						path, i+1, gotLines[i], wantLines[i])
				}
			}
			t.Fatalf("%s: document has %d lines, golden has %d (rerun with -update only if the change is meant)",
				path, len(gotLines), len(wantLines))
		})
	}
}

// TestGoldenProtocolColumnsDistinct reads every golden of this package
// and of internal/shard and fails when two protocols hold the same
// multiset of rows once the protocol name and the host fields are
// blanked: such a column is one algorithm under two names, and a table
// that prints both presents one set of numbers as a comparison. It runs
// after TestDocumentsGolden, so `-run Golden -update` with a duplicate
// protocol in a grid writes the goldens and then fails here.
func TestGoldenProtocolColumnsDistinct(t *testing.T) {
	var paths []string
	for _, dir := range []string{"testdata", filepath.Join("..", "shard", "testdata")} {
		ps, err := filepath.Glob(filepath.Join(dir, "*_golden.json"))
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, ps...)
	}
	if len(paths) < 6 {
		t.Fatalf("found %d goldens, want at least 6: %v", len(paths), paths)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Rows []map[string]any `json:"rows"`
		}
		rows := &doc.Rows
		if bytes.HasPrefix(bytes.TrimSpace(data), []byte("[")) {
			rows = &[]map[string]any{}
			err = json.Unmarshal(data, rows)
		} else {
			err = json.Unmarshal(data, &doc)
		}
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		columns := map[string][]string{}
		for _, r := range *rows {
			proto, _ := r["protocol"].(string)
			if proto == "" {
				proto, _ = r["proto"].(string)
			}
			delete(r, "protocol")
			delete(r, "proto")
			for _, host := range []string{"events_per_sec", "alloc_bytes", "bytes_per_node"} {
				delete(r, host)
			}
			line, err := json.Marshal(r) // map keys marshal sorted
			if err != nil {
				t.Fatal(err)
			}
			columns[proto] = append(columns[proto], string(line))
		}
		if len(columns) < 2 {
			t.Errorf("%s: %d protocol columns; the check is vacuous", path, len(columns))
		}
		protos := make([]string, 0, len(columns))
		for proto := range columns {
			protos = append(protos, proto)
		}
		sort.Strings(protos)
		seen := map[string]string{}
		for _, proto := range protos {
			col := columns[proto]
			sort.Strings(col)
			key := strings.Join(col, "\n")
			if other, ok := seen[key]; ok {
				t.Errorf("%s: protocols %q and %q hold the same %d rows", path, other, proto, len(col))
			}
			seen[key] = proto
		}
	}
}
