package shard_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/arrow"
	"repro/internal/graph"
	"repro/internal/nta"
	"repro/internal/queuing"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/tree"
	"repro/internal/workload"
)

const staticGoldenPath = "testdata/static_golden.json"

// staticCase names one static-set run; every field is a plain value so
// the committed file describes its own rows.
type staticCase struct {
	Proto   string `json:"proto"`   // arrow (spanning tree) | nta (graph metric)
	Shape   string `json:"shape"`   // path | star | binary | bfs (arrow); complete | ring | gnp (nta)
	N       int    `json:"n"`       // node count
	Latency string `json:"latency"` // sync | async4 | bimodal
	Arb     string `json:"arb"`     // fifo | lifo | random
	Root    int    `json:"root"`    // initial sink / tail holder / owner
	Set     string `json:"set"`     // poisson | burst | sequential
}

// staticRow is a case with everything the run reports, one column per
// completion field (indexed by request ID). Sink and the final pointer
// state are arrow's; PhysHops is NTA's (on a tree every hop is one
// link).
type staticRow struct {
	staticCase
	Makespan     int64   `json:"makespan"`
	TotalLatency int64   `json:"total_latency"`
	TotalHops    int64   `json:"total_hops"`
	MaxHops      int     `json:"max_hops"`
	Order        []int   `json:"order"`
	Pred         []int   `json:"pred"`
	At           []int64 `json:"at"`
	Hops         []int   `json:"hops"`
	Sink         []int   `json:"sink,omitempty"`
	PhysHops     []int   `json:"phys_hops,omitempty"`
	FinalLinks   []int   `json:"final_links,omitempty"`
	FinalSink    *int    `json:"final_sink,omitempty"`
}

// staticCases is the matrix the rows were captured over, in file order.
func staticCases() []staticCase {
	var cs []staticCase
	for _, p := range []struct {
		proto  string
		shapes []string
	}{
		{"arrow", []string{"path", "star", "binary", "bfs"}},
		{"nta", []string{"complete", "ring", "gnp"}},
	} {
		for _, shape := range p.shapes {
			for _, n := range []int{1, 2, 24, 76} {
				roots := []int{0}
				if n/3 != 0 {
					// Off the tree root (arrow), off node 0 (NTA).
					roots = append(roots, n/3)
				}
				for _, lat := range []string{"sync", "async4", "bimodal"} {
					for _, arb := range []string{"fifo", "lifo", "random"} {
						for _, root := range roots {
							for _, set := range []string{"poisson", "burst", "sequential"} {
								cs = append(cs, staticCase{p.proto, shape, n, lat, arb, root, set})
							}
						}
					}
				}
			}
		}
	}
	return cs
}

func staticLatency(name string) sim.LatencyModel {
	if name == "bimodal" {
		return sim.AsyncBimodal(5, 0.3)
	}
	return goldenLatency(name)
}

func staticArb(name string) sim.Arbitration {
	for _, a := range []sim.Arbitration{sim.ArbFIFO, sim.ArbLIFO, sim.ArbRandom} {
		if a.String() == name {
			return a
		}
	}
	panic("unknown arbitration " + name)
}

func staticSet(name string, n int) queuing.Set {
	switch name {
	case "poisson":
		return workload.Poisson(n, 0.5, sim.Time(n+8), int64(n)+11)
	case "burst":
		// Every node requests at t = 0.
		return workload.OneShot(n, n, int64(n)+12)
	case "sequential":
		// The gap exceeds any chain's cost (at most n hops of at most 5
		// ticks), so no two finds are in flight together.
		return workload.Sequential(n, 12, sim.Time(8*n), int64(n)+13)
	}
	panic("unknown set " + name)
}

func staticTree(shape string, n int) *tree.Tree {
	switch shape {
	case "path":
		return tree.PathTree(n)
	case "star":
		return tree.StarTree(n)
	case "binary":
		return tree.BalancedBinary(n)
	case "bfs":
		t, err := tree.BFS(graph.GNP(n, 0.08, int64(n)+5), 0)
		if err != nil {
			panic(err)
		}
		return t
	}
	panic("unknown tree shape " + shape)
}

func staticGraph(shape string, n int) *graph.Graph {
	switch shape {
	case "complete":
		return graph.Complete(n)
	case "ring":
		if n < 3 {
			return graph.Path(n)
		}
		return graph.Cycle(n)
	case "gnp":
		return graph.GNP(n, 0.08, int64(n)+5)
	}
	panic("unknown graph shape " + shape)
}

func ids(nodes []graph.NodeID) []int {
	out := make([]int, len(nodes))
	for i, v := range nodes {
		out[i] = int(v)
	}
	return out
}

func runStatic(c staticCase) (staticRow, error) {
	set := staticSet(c.Set, c.N)
	lat, arb, root := staticLatency(c.Latency), staticArb(c.Arb), graph.NodeID(c.Root)
	row := staticRow{staticCase: c}
	var (
		res *shard.StaticResult
		err error
	)
	switch c.Proto {
	case "arrow":
		var r *arrow.Result
		if r, err = arrow.Run(staticTree(c.Shape, c.N), set, arrow.Options{Root: root, Latency: lat, Arbitration: arb, Seed: 7}); err == nil {
			sink := int(r.FinalSink)
			res, row.FinalLinks, row.FinalSink = &r.StaticResult, ids(r.FinalLinks), &sink
		}
	case "nta":
		res, err = nta.Run(staticGraph(c.Shape, c.N), set, nta.Options{Root: root, Latency: lat, Arbitration: arb, Seed: 7})
	default:
		err = fmt.Errorf("unknown protocol %q", c.Proto)
	}
	if err != nil {
		return row, err
	}
	row.Makespan, row.TotalLatency, row.TotalHops, row.MaxHops = int64(res.Makespan), res.TotalLatency, res.TotalHops, res.MaxHops
	row.Order = append([]int{}, res.Order...)
	row.Pred, row.At, row.Hops = make([]int, len(set)), make([]int64, len(set)), make([]int, len(set))
	// The drivers the rows were captured from reported a sink under arrow
	// and physical hops under NTA.
	last := make([]int, len(set))
	if c.Proto == "arrow" {
		row.Sink = last
	} else {
		row.PhysHops = last
	}
	for i, cp := range res.Completions {
		row.Pred[i], row.At[i], row.Hops[i], last[i] = cp.PredID, int64(cp.At), cp.Hops, cp.PhysHops
		if c.Proto == "arrow" {
			last[i] = int(cp.Sink)
		}
	}
	return row, nil
}

// TestStaticGolden pins arrow.Run and nta.Run — both are shard.Replay
// over the protocol's Stepper — to what the private static drivers they
// replaced produced at the commit before they were
// deleted: every completion (predecessor, time, hops, sink or physical
// hops), the order, the makespan and totals, and arrow's final links and
// sink. The file is compared byte for byte; -update rewrites it, only
// when a change of behaviour is meant.
//
// The rows were regenerated once since, when the simulator's latency and
// random-arbitration draws became hashes of (seed, event seq) instead of
// reads from two RNG streams. What moved: every async4 and bimodal row
// whose delays changed, and random-arbitration rows whose same-tick ties
// the new priorities break differently. No sync row under fifo or lifo
// moved. AsyncUniform took the hash AsyncCounter used, so each counter4
// row became a byte copy of its async4 twin, and that axis was dropped
// (the closed-loop golden lost its counter4 rows for the same reason).
// The ivy rows, byte copies of their nta twins because the simulated Ivy
// ran nta's stepper, were dropped with it; no other row moved.
//
// Mutations of Replay and the steppers, each verified to fail this test:
//
//	skip the pointer flip on a forwarded find      ShardForest.ForwardFind: arrow rows stop with a
//	                                               two-successors error; Reversal.ForwardFind: nta
//	write lastReq[v] before reading it at a        the first row already (a request queued behind
//	local completion                               itself breaks the chain)
//	inject requests in node order, not set order   98 rows: poisson sets under random arbitration
//	count PhysHops as Hops                         the ring and gnp rows of nta
func TestStaticGolden(t *testing.T) {
	var buf bytes.Buffer
	cases := staticCases()
	buf.WriteString("[\n")
	for i, c := range cases {
		row, err := runStatic(c)
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
	if *update {
		if err := os.WriteFile(staticGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(staticGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	got, wantLines := bytes.Split(buf.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(got) != len(wantLines) {
		t.Fatalf("%s has %d lines, the matrix produces %d (rerun with -update only if the change is meant)", staticGoldenPath, len(wantLines), len(got))
	}
	diverged := 0
	for i := range got {
		if !bytes.Equal(got[i], wantLines[i]) {
			if diverged++; diverged <= 3 {
				t.Errorf("line %d diverged from the golden row:\n got:  %s\nwant: %s", i+1, got[i], wantLines[i])
			}
		}
	}
	t.Errorf("%d of %d rows diverged", diverged, len(cases))
}
