package shard_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/arrow"
	"repro/internal/graph"
	"repro/internal/ivy"
	"repro/internal/loop"
	"repro/internal/nta"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tree"
)

var update = flag.Bool("update", false, "rewrite testdata/closedloop_golden.json and testdata/static_golden.json from the current drivers")

const goldenPath = "testdata/closedloop_golden.json"

// goldenCase names one single-object closed-loop run. Every field is a
// plain value so the committed file describes its own rows.
type goldenCase struct {
	Proto   string `json:"proto"` // arrow (balanced binary tree) | nta | ivy (complete metric)
	N       int    `json:"n"`
	PerNode int    `json:"per_node"`
	Latency string `json:"latency"` // sync | async4
	Think   int64  `json:"think"`
	LinkTx  int64  `json:"link_tx"`
	Root    int    `json:"root"`
	Faults  string `json:"faults,omitempty"` // node-churn | node-queue | link-churn | link-queue
}

// goldenRow is a case with everything the run reports: the full result
// tuple and both recorder snapshots.
type goldenRow struct {
	goldenCase
	Result  loop.Result `json:"result"`
	Latency stats.Dist  `json:"latency_dist"`
	Hops    stats.Dist  `json:"hops_dist"`
}

// goldenCases is the matrix the rows were captured over, in file order.
func goldenCases() []goldenCase {
	var cs []goldenCase
	for _, proto := range []string{"arrow", "nta", "ivy"} {
		for _, n := range []int{1, 2, 24, 76} {
			for _, lat := range []string{"sync", "async4"} {
				for _, think := range []int64{0, 16} {
					for _, tx := range []int64{0, 1} {
						cs = append(cs, goldenCase{Proto: proto, N: n, PerNode: 12, Latency: lat, Think: think, LinkTx: tx})
					}
				}
			}
		}
		// A non-zero root moves the initial sink off the tree root
		// (arrow) and off node 0 (NTA, Ivy).
		for _, n := range []int{24, 76} {
			for _, lat := range []string{"sync", "async4"} {
				cs = append(cs, goldenCase{Proto: proto, N: n, PerNode: 12, Latency: lat, Root: n / 3})
			}
		}
	}
	// Healing fault plans: the forwarding protocols recover by re-issue
	// at heal; arrow's link-churn rows drop queue messages, so they run
	// freeze → drain → repair → re-issue (RepairEpisodes > 0).
	for _, proto := range []string{"nta", "ivy"} {
		cs = append(cs,
			goldenCase{Proto: proto, N: 24, PerNode: 30, Latency: "sync", Faults: "node-churn"},
			goldenCase{Proto: proto, N: 24, PerNode: 30, Latency: "async4", Think: 16, Root: 5, Faults: "node-churn"},
			goldenCase{Proto: proto, N: 16, PerNode: 20, Latency: "sync", Faults: "node-queue"},
		)
	}
	cs = append(cs,
		goldenCase{Proto: "arrow", N: 31, PerNode: 40, Latency: "sync", Faults: "link-churn"},
		goldenCase{Proto: "arrow", N: 31, PerNode: 40, Latency: "async4", Think: 16, Root: 9, Faults: "link-churn"},
		goldenCase{Proto: "arrow", N: 24, PerNode: 30, Latency: "sync", Faults: "node-churn"},
		goldenCase{Proto: "arrow", N: 15, PerNode: 25, Latency: "sync", Faults: "link-queue"},
	)
	return cs
}

func goldenLatency(name string) sim.LatencyModel {
	switch name {
	case "sync":
		return nil
	case "async4":
		return sim.AsyncUniform(4)
	}
	panic("unknown latency " + name)
}

func goldenFaults(name string, n int, tr *tree.Tree) *sim.FaultPlan {
	switch name {
	case "":
		return nil
	case "node-churn":
		return &sim.FaultPlan{Events: sim.NodeChurn(n, nil, 1.5, 25, 20, 600, 7)}
	case "node-queue":
		return &sim.FaultPlan{Policy: sim.FaultQueue, Events: sim.NodeChurn(n, nil, 1, 20, 15, 400, 3)}
	case "link-churn":
		return &sim.FaultPlan{Events: sim.LinkChurn(sim.TreeLinks(tr), 2, 30, 20, 800, 5)}
	case "link-queue":
		return &sim.FaultPlan{Policy: sim.FaultQueue, Events: sim.LinkChurn(sim.TreeLinks(tr), 2, 20, 10, 400, 3)}
	}
	panic("unknown fault plan " + name)
}

func runGolden(c goldenCase) (goldenRow, error) {
	rec := stats.NewDistRecorder()
	var tr *tree.Tree // arrow's spanning tree; the link plans fail its edges
	if c.Proto == "arrow" {
		tr = tree.BalancedBinary(c.N)
	}
	spec := loop.Spec{
		PerNode:    c.PerNode,
		ThinkTime:  sim.Time(c.Think),
		Latency:    goldenLatency(c.Latency),
		Seed:       7,
		Recorder:   rec,
		LinkTxTime: sim.Time(c.LinkTx),
		Faults:     goldenFaults(c.Faults, c.N, tr),
	}
	root := graph.NodeID(c.Root)
	var (
		res *loop.Result
		err error
	)
	switch c.Proto {
	case "arrow":
		var r *arrow.LoopResult
		if r, err = arrow.RunClosedLoop(tr, arrow.LoopConfig{Spec: spec, Root: root}); err == nil {
			conv := loop.Result(*r)
			res = &conv
		}
	case "nta":
		res, err = nta.RunClosedLoopTopo(sim.NewCompleteTopology(c.N), nta.LoopConfig{Spec: spec, Root: root})
	case "ivy":
		res, err = ivy.RunClosedLoopTopo(sim.NewCompleteTopology(c.N), ivy.LoopConfig{Spec: spec, Root: root})
	default:
		err = fmt.Errorf("unknown protocol %q", c.Proto)
	}
	if err != nil {
		return goldenRow{}, err
	}
	return goldenRow{goldenCase: c, Result: *res, Latency: rec.Latency.Snapshot(), Hops: rec.Hops.Snapshot()}, nil
}

// TestClosedLoopGolden pins the single driver to the tuples the three
// drivers it replaced produced at the commit before they were deleted
// (arrow's private loop, and package loop's under NTA and Ivy): every
// counter of loop.Result plus the latency and hop histogram snapshots,
// fault-free and under healing fault plans. A swapped reversal target
// in any stepper (previous hop for arrow, requester for NTA/Ivy) or a
// swapped reply route (tree-routed for arrow, direct otherwise) changes
// hop counts or latencies in some row.
func TestClosedLoopGolden(t *testing.T) {
	cases := goldenCases()
	if *update {
		var buf bytes.Buffer
		buf.WriteString("[\n")
		for i, c := range cases {
			row, err := runGolden(c)
			if err != nil {
				t.Fatalf("%+v: %v", c, err)
			}
			line, err := json.Marshal(row)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			if i < len(cases)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("]\n")
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	if len(want) != len(cases) {
		t.Fatalf("%s has %d rows, the matrix has %d cases (rerun with -update only if the change is meant)", goldenPath, len(want), len(cases))
	}
	repaired := false
	for i, c := range cases {
		if want[i].goldenCase != c {
			t.Fatalf("row %d is %+v, the matrix has %+v", i, want[i].goldenCase, c)
		}
		got, err := runGolden(c)
		if err != nil {
			t.Errorf("%+v: %v", c, err)
			continue
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%+v diverged from the golden tuple:\n got:  %+v\nwant: %+v", c, got, want[i])
		}
		if c.Proto == "arrow" && got.Result.RepairEpisodes > 0 {
			repaired = true
		}
	}
	if !repaired {
		t.Error("no arrow row ran a repair episode; the fault rows are vacuous")
	}
}
