// Cross-module integration tests: whole-pipeline flows that no single
// package exercises — workload persistence through protocol execution,
// simulator-vs-goroutine-runtime agreement, fault injection followed by
// live protocol traffic, and trace-instrumented closed-loop runs.
package repro

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/arrow"
	"repro/internal/centralized"
	"repro/internal/graph"
	"repro/internal/nta"
	"repro/internal/opt"
	"repro/internal/queuing"
	"repro/internal/runtime"
	"repro/internal/stabilize"
	"repro/internal/trace"
	"repro/internal/tree"
	"repro/internal/workload"
)

// TestSimAndRuntimeAgreeSequentially drives the simulator and the
// goroutine runtime with the same sequential request sequence; both must
// produce the same queuing order and per-request hop counts.
func TestSimAndRuntimeAgreeSequentially(t *testing.T) {
	tr := tree.BalancedBinary(15)
	nodes := []graph.NodeID{7, 3, 14, 0, 9, 7, 1}

	// Simulator: spaced far apart in time = sequential.
	reqs := make([]queuing.Request, len(nodes))
	for i, v := range nodes {
		reqs[i] = queuing.Request{Node: v, Time: int64(i) * 100}
	}
	set := queuing.NewSet(reqs)
	simRes, err := arrow.Run(tr, set, arrow.Options{Root: 0})
	if err != nil {
		t.Fatal(err)
	}

	// Runtime: issue one at a time, waiting for quiescence between.
	net := runtime.New(tr, 0, runtime.Options{})
	net.Start()
	var (
		mu    sync.Mutex
		comps []runtime.Completion
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for c := range net.Completions() {
			mu.Lock()
			comps = append(comps, c)
			mu.Unlock()
		}
	}()
	for _, v := range nodes {
		if _, err := net.Submit(v, 0); err != nil {
			t.Fatal(err)
		}
		net.Wait()
	}
	net.Stop()
	<-done

	if len(comps) != len(nodes) {
		t.Fatalf("runtime completed %d of %d", len(comps), len(nodes))
	}
	for i, id := range simRes.Order {
		simC := simRes.Completions[id]
		rtC := comps[i]
		if simC.Req.Node != rtC.Origin {
			t.Errorf("position %d: sim origin v%d, runtime origin v%d",
				i, simC.Req.Node, rtC.Origin)
		}
		if simC.Hops != int(rtC.Hops) {
			t.Errorf("position %d: sim hops %d, runtime hops %d", i, simC.Hops, rtC.Hops)
		}
	}
}

// TestRepairThenProtocolThenRepair injects faults mid-lifecycle: run the
// protocol, corrupt the final pointers, repair, and run more traffic from
// the repaired sink.
func TestRepairThenProtocolThenRepair(t *testing.T) {
	tr := tree.BalancedBinary(31)
	set1 := workload.OneShot(31, 12, 1)
	res, err := arrow.Run(tr, set1, arrow.Options{Root: 0})
	if err != nil {
		t.Fatal(err)
	}
	links := append([]graph.NodeID(nil), res.FinalLinks...)
	// Corrupt a third of the pointers.
	for i := 0; i < 10; i++ {
		links[(i*7)%31] = graph.NodeID((i * 13) % 31)
	}
	rep, err := stabilize.Repair(tr, links)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := stabilize.IsLegal(tr, links); !ok {
		t.Fatal("repair left an illegal state")
	}
	set2 := workload.OneShot(31, 8, 2)
	res2, err := arrow.Run(tr, set2, arrow.Options{Root: rep.Sink})
	if err != nil {
		t.Fatal(err)
	}
	if !queuing.ValidOrder(res2.Order, len(set2)) {
		t.Fatal("post-repair protocol produced invalid order")
	}
}

// TestTracedRunMatchesUntraced verifies tracing is a pure observer: the
// same run with and without a tracer yields identical costs.
func TestTracedRunMatchesUntraced(t *testing.T) {
	tr := tree.BalancedBinary(15)
	set := workload.Bursty(15, 4, 2, 20, 3)
	plain, err := arrow.Run(tr, set, arrow.Options{Root: 0})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	traced, err := arrow.Run(tr, set, arrow.Options{Root: 0, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if plain.TotalLatency != traced.TotalLatency || plain.TotalHops != traced.TotalHops {
		t.Error("tracer changed protocol behaviour")
	}
	if len(rec.Events()) == 0 {
		t.Error("tracer recorded nothing")
	}
}

// TestAllQueuingProtocolsAgreeOnSequentialOrder runs arrow, NTA and the
// centralized protocol on one well-separated workload; all three must
// queue in issue order (the only sensible sequential order).
func TestAllQueuingProtocolsAgreeOnSequentialOrder(t *testing.T) {
	n := 16
	g := graph.Complete(n)
	tr := tree.BalancedBinary(n)
	set := workload.Sequential(n, 12, 50, 9)

	ar, err := arrow.Run(tr, set, arrow.Options{Root: 0})
	if err != nil {
		t.Fatal(err)
	}
	nt, err := nta.Run(g, set, nta.Options{Root: 0})
	if err != nil {
		t.Fatal(err)
	}
	ce, err := centralized.Run(g, set, centralized.Options{Center: 0})
	if err != nil {
		t.Fatal(err)
	}
	for i := range set {
		if ar.Order[i] != i || nt.Order[i] != i || ce.Order[i] != i {
			t.Fatalf("position %d: orders arrow=%d nta=%d central=%d, want %d",
				i, ar.Order[i], nt.Order[i], ce.Order[i], i)
		}
	}
}

// TestExperimentHarnessEndToEnd smoke-runs every entry of
// analysis.Experiments — the arrowbench surface — at reduced flag values
// (the experiments no flag feeds run at their own sizes; all of them
// take seconds in total). Every entry must return at least one non-empty
// table, and the entries with a versioned document must marshal it with
// their schema string.
func TestExperimentHarnessEndToEnd(t *testing.T) {
	smoke := analysis.Params{
		Sizes: []int{2, 4}, PerNode: 10, Seed: 1, Objects: []int{4},
		SizesSet: true, PerNodeSet: true,
	}
	documented := map[string]bool{"perf": true, "stabilize": true, "churn": true, "scale": true, "shard": true, "directory": true}
	seen := map[string]bool{}
	for _, e := range analysis.Experiments {
		if e.Name == "" || e.Name == "all" || e.Desc == "" || seen[e.Name] {
			t.Errorf("entry %q (%q): name must be unique and not \"all\", description non-empty", e.Name, e.Desc)
		}
		seen[e.Name] = true
		res, err := e.Run(smoke)
		if err != nil {
			t.Errorf("%s: %v", e.Name, err)
			continue
		}
		if len(res.Tables) == 0 {
			t.Errorf("%s: no table", e.Name)
		}
		for _, tbl := range res.Tables {
			if len(tbl.Rows) == 0 {
				t.Errorf("%s: table %q has no rows", e.Name, tbl.Title)
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Headers) {
					t.Errorf("%s: table %q has a row of %d cells under %d headers", e.Name, tbl.Title, len(row), len(tbl.Headers))
				}
			}
		}
		if (res.Doc != nil) != documented[e.Name] {
			t.Errorf("%s: document present = %v, want %v", e.Name, res.Doc != nil, documented[e.Name])
		}
		if res.Doc != nil {
			b, err := json.Marshal(res.Doc)
			if want := `{"schema":"arrowbench/` + e.Name + `/v`; err != nil || !strings.HasPrefix(string(b), want) {
				t.Errorf("%s: document %.40q (err %v), want prefix %s", e.Name, b, err, want)
			}
		}
	}
	// The competitive-ratio denominator machinery.
	g := graph.Grid(4, 4)
	set := workload.OneShot(16, 6, 1)
	b := opt.Compute(g, 0, set)
	if !b.Exact || b.Lower <= 0 {
		t.Errorf("opt bounds degenerate: %+v", b)
	}
}
