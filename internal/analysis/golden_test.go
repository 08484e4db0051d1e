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

var update = flag.Bool("update", false, "rewrite testdata/<name>_golden.txt and, for entries with a document, testdata/<name>_golden.json for every analysis.Experiments entry")

// goldenParams are the flags of the entries whose goldens predate the
// loop below and keep the sizes those were written with; every other
// entry runs at defaultGoldenParams. The directory entry ignores -sizes
// and, without PerNodeSet, runs its own 200 acquisitions per node.
var goldenParams = map[string]Params{
	"perf":  {Sizes: []int{64, 76}, PerNode: 500, Seed: 1},
	"scale": {Sizes: []int{2000, 5000}, PerNode: 20, Seed: 1, SizesSet: true, PerNodeSet: true},
	"shard": {Objects: []int{16, 128}, PerNode: 50, Seed: 1, PerNodeSet: true},
	"churn": {PerNode: 120, Seed: 1},
}

var defaultGoldenParams = Params{Sizes: []int{4, 8}, PerNode: 50, Seed: 1}

// TestExperimentsGolden runs every entry of Experiments, through its own
// Run, at Workers 1 and 4 and compares what arrowbench would print byte
// for byte against testdata: the rendered tables against
// <name>_golden.txt and, for an entry that returns a Document, its -json
// form against <name>_golden.json. Every number in them is a pure
// function of (topology, workload, seed), so a one-tick change in any
// protocol's makespan, one extra next-epoch push or one request counted
// twice fails here, exactly — there is no tolerance. The two worker
// counts must agree too. An entry without a golden fails, and so does a
// golden that no entry writes. The only host-dependent values are
// blanked by blankHost before the comparison, so the files hold 0 there.
//
// A change of behaviour that is meant moves a golden with
//
//	go test ./internal/analysis -run Golden -update
//
// and commits the diff; on a clean tree that command leaves git status
// empty.
//
// Each gate was shown to bite: every mutation below was applied on its
// own in a copy of the tree and fails `go test ./...` (not only CI) at
// the tests named.
//
//	mutation                                  fails
//	shard driver's default think time 1 -> 2  TestExperimentsGolden/{fig10,fig11,baselines,perf,churn,
//	                                          scale,shard}; also shard.TestClosedLoopGolden,
//	                                          shard.TestLinkStats, trace.TestChaosLogGolden
//	workload.DefaultK returns k+1             TestExperimentsGolden/{lowerbound,stretch},
//	                                          TestLowerBoundTableLabelsEstimates
//	sim ringBits 9 -> 8                       TestExperimentsGolden/scale alone in this package
//	                                          (far_pushes 2 -> 34); the work counters are gated
//	                                          on their own (sim's tier tests fail too)
//	rm testdata/oneshot_golden.txt            TestExperimentsGolden/oneshot
//	rm testdata/stabilize_golden.json         TestExperimentsGolden/stabilize
//	touch testdata/bogus_golden.txt           TestExperimentsGolden (no entry is named "bogus")
//	engine.Ivy{} back in baselineProtocols()  TestExperimentsGolden/{baselines,perf,churn},
//	                                          TestBaselinesClosedLoop; after -update,
//	                                          TestGoldenProtocolColumnsDistinct (ivy = nta)
//	box a value per call in Simulator.send    root TestSimSendDispatchZeroAlloc, all three cases
//	                                          (200 512 allocations), shard.TestReplayAllocsPerRequest
//	delete BenchmarkShardHandle               lint.TestHotpathCoverage
//	//arrow:hotpath on stats.histIndex        lint.TestHotpathCoverage (package not in the manifest)
func TestExperimentsGolden(t *testing.T) {
	names := map[string]bool{}
	for _, e := range Experiments {
		names[e.Name] = true
		p, ok := goldenParams[e.Name]
		if !ok {
			p = defaultGoldenParams
		}
		t.Run(e.Name, func(t *testing.T) {
			text, doc := printed(t, e, p, 1)
			if text4, doc4 := printed(t, e, p, 4); !bytes.Equal(text, text4) || !bytes.Equal(doc, doc4) {
				t.Fatalf("workers 1 and 4 print different results:\n%s%s\n%s%s", text, doc, text4, doc4)
			}
			compareGolden(t, e.Name+"_golden.txt", text)
			path := filepath.Join("testdata", e.Name+"_golden.json")
			if doc != nil {
				compareGolden(t, e.Name+"_golden.json", doc)
			} else if _, err := os.Stat(path); err == nil {
				t.Errorf("%s exists, but %s returns no document", path, e.Name)
			}
		})
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "*_golden.*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		if name, _, _ := strings.Cut(filepath.Base(path), "_golden."); !names[name] {
			t.Errorf("%s: no entry of Experiments is named %q", path, name)
		}
	}
}

// printed runs e at p with the given worker count and returns what
// `arrowbench -exp <name>` prints, host values blanked: the tables, and
// for an entry with a document, what -json prints instead (else nil).
func printed(t *testing.T, e Experiment, p Params, workers int) (text, doc []byte) {
	t.Helper()
	p.Workers = workers
	res, err := e.Run(p)
	if err != nil {
		t.Fatalf("workers %d: %v", workers, err)
	}
	blankHost(&res)
	for _, tab := range res.Tables {
		text = append(text, tab.Render()+"\n"...)
	}
	if res.Doc != nil {
		if doc, err = json.MarshalIndent(res.Doc, "", "  "); err != nil {
			t.Fatal(err)
		}
		doc = append(doc, '\n') // arrowbench prints the document with Println
	}
	return text, doc
}

// blankHost zeroes what measures the host rather than the simulation:
// the wall-clock throughput of perf and scale (events_per_sec, the Mev/s
// column) and scale's allocation (alloc_bytes, bytes_per_node, the
// B/node column). Each table cell reads 0.000, as it would from the
// zeroed row.
func blankHost(res *Result) {
	switch doc := res.Doc.(type) {
	case Document[PerfConfig, PerfRow]:
		for i := range doc.Rows {
			doc.Rows[i].EventsPerSec = 0
		}
	case Document[ScaleConfig, ScaleRow]:
		for i := range doc.Rows {
			r := &doc.Rows[i]
			r.EventsPerSec, r.AllocBytes, r.BytesPerNode = 0, 0, 0
		}
	}
	for _, tab := range res.Tables {
		for c, h := range tab.Headers {
			if h == "Mev/s" || h == "B/node" {
				for _, row := range tab.Rows {
					row[c] = "0.000"
				}
			}
		}
	}
}

// compareGolden compares got with testdata/name, or with -update
// rewrites the file. A missing file fails.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	matchGolden(t, path, got)
}

// matchGolden fails unless got equals the file at path byte for byte,
// naming the first line that differs.
func matchGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (write it with -update)", err)
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
	t.Fatalf("%s: output has %d lines, golden has %d (rerun with -update only if the change is meant)",
		path, len(gotLines), len(wantLines))
}

// TestDocumentsGolden builds the four versioned documents through the
// exported experiment functions, with the configs spelled out, rather
// than through the catalog's Run, and requires the very bytes
// TestExperimentsGolden pins: a library caller and `arrowbench -json`
// get one document. It only reads the goldens; it runs after the loop,
// so `-run Golden -update` compares against the files just written.
func TestDocumentsGolden(t *testing.T) {
	docs := []struct {
		name  string
		build func() (any, error)
	}{
		{"perf", func() (any, error) {
			doc, err := PerfExperiment(PerfConfig{Sizes: []int{64, 76}, PerNode: 500, Seed: 1}, 0)
			res := Result{Doc: doc}
			blankHost(&res)
			return res.Doc, err
		}},
		{"scale", func() (any, error) {
			doc, err := ScaleExperiment(ScaleConfig{Sizes: []int{2000, 5000}, PerNode: 20, Seed: 1})
			res := Result{Doc: doc}
			blankHost(&res)
			return res.Doc, err
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
			matchGolden(t, filepath.Join("testdata", d.name+"_golden.json"), got)
		})
	}
}

// TestGoldenProtocolColumnsDistinct reads every golden of this package
// and of internal/shard and fails when two protocols hold the same
// multiset of rows once the protocol name and the host fields are
// blanked: such a column is one algorithm under two names, and a table
// that prints both presents one set of numbers as a comparison. A
// document whose rows name no protocol (stabilize, directory) has no
// columns to compare and is skipped; the six that do (perf, scale,
// shard, churn and internal/shard's two) must all be read, so the check
// cannot go vacuous. It runs after TestExperimentsGolden, so `-run
// Golden -update` with a duplicate protocol in a grid writes the
// goldens and then fails here.
func TestGoldenProtocolColumnsDistinct(t *testing.T) {
	var paths []string
	for _, dir := range []string{"testdata", filepath.Join("..", "shard", "testdata")} {
		ps, err := filepath.Glob(filepath.Join(dir, "*_golden.json"))
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, ps...)
	}
	checked := 0
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
		if _, unnamed := columns[""]; unnamed && len(columns) == 1 {
			continue
		}
		checked++
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
	if checked < 6 {
		t.Errorf("%d of %d goldens name protocols, want at least 6: %v", checked, len(paths), paths)
	}
}
