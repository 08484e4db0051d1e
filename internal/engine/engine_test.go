package engine

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/queuing"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tree"
	"repro/internal/workload"
)

// determinismGrid builds a cell grid covering every arbitration policy,
// several latency models (including random ones) and every protocol
// adapter in both workload modes it supports.
func determinismGrid(seed int64) []Cell {
	const n = 24
	g := graph.Complete(n)
	t := tree.BalancedBinary(n)
	set := workload.Poisson(n, 0.5, 80, seed)
	if len(set) == 0 {
		set = workload.OneShot(n, n/2, seed)
	}
	var cells []Cell
	arbs := []sim.Arbitration{sim.ArbFIFO, sim.ArbLIFO, sim.ArbRandom}
	models := []sim.LatencyModel{nil, sim.AsyncUniform(7), sim.AsyncBimodal(5, 0.2)}
	i := 0
	for _, arb := range arbs {
		for _, m := range models {
			inst := Instance{
				Label:       fmt.Sprintf("arb=%v/model=%d", arb, i),
				Graph:       g,
				Tree:        t,
				Root:        0,
				Workload:    NewStatic(set).MustBuild(),
				Latency:     m,
				Arbitration: arb,
				Seed:        DeriveSeed(seed, i),
			}
			loopInst := inst
			loopInst.Workload = NewClosedLoop(8).MustBuild()
			cells = append(cells,
				Cell{Protocol: Arrow{}, Instance: inst},
				Cell{Protocol: NTA{}, Instance: inst},
				Cell{Protocol: Centralized{}, Instance: inst},
				Cell{Protocol: Arrow{}, Instance: loopInst},
				Cell{Protocol: Centralized{}, Instance: loopInst},
				Cell{Protocol: NTA{}, Instance: loopInst},
			)
			i++
		}
	}
	return cells
}

// TestSweepDeterministicAcrossWorkerCounts is the runner's core
// guarantee: the outcome slice of a parallel sweep is byte-identical to
// the sequential workers=1 run, across arbitration policies and
// random-latency models.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		cells := determinismGrid(seed)
		want := Sweep(cells, 1)
		if err := FirstError(want); err != nil {
			t.Fatalf("seed %d: sequential sweep failed: %v", seed, err)
		}
		wantBytes := make([]string, len(want))
		for i, o := range want {
			wantBytes[i] = fmt.Sprintf("%#v", o.Cost)
		}
		for _, workers := range []int{2, 4, 8, 0} {
			got := Sweep(cells, workers)
			for i := range got {
				if got[i].Err != nil {
					t.Fatalf("seed %d workers %d cell %d: %v", seed, workers, i, got[i].Err)
				}
				if g := fmt.Sprintf("%#v", got[i].Cost); g != wantBytes[i] {
					t.Errorf("seed %d workers %d cell %d (%s/%s): parallel result diverged\n got: %s\nwant: %s",
						seed, workers, i, cells[i].Protocol.Name(), cells[i].Instance.Label, g, wantBytes[i])
				}
			}
		}
	}
}

// TestSweepRepeatable re-runs the same sweep twice at full parallelism;
// both passes must agree (no hidden shared state across cells).
func TestSweepRepeatable(t *testing.T) {
	cells := determinismGrid(7)
	a := Sweep(cells, 8)
	b := Sweep(cells, 8)
	for i := range a {
		if fmt.Sprintf("%#v", a[i]) != fmt.Sprintf("%#v", b[i]) {
			t.Fatalf("cell %d: sweep is not repeatable", i)
		}
	}
}

// recorderGrid is determinismGrid with a fresh DistRecorder per cell.
// It must be rebuilt for every sweep: recorders accumulate state.
func recorderGrid(seed int64) []Cell {
	cells := determinismGrid(seed)
	for i := range cells {
		inst := cells[i].Instance
		inst.Recorder = stats.NewDistRecorder()
		cells[i].Instance = inst
	}
	return cells
}

// TestSweepDeterministicWithRecorders extends the worker-count
// determinism guarantee to instrumented sweeps: with a private
// DistRecorder per cell, the full Cost — including the Latency/Hops
// distribution snapshots — is byte-identical for every worker count.
func TestSweepDeterministicWithRecorders(t *testing.T) {
	want := Sweep(recorderGrid(5), 1)
	if err := FirstError(want); err != nil {
		t.Fatalf("sequential sweep failed: %v", err)
	}
	for i, o := range want {
		if o.Cost.Latency.Count != o.Cost.Requests || o.Cost.Hops.Count != o.Cost.Requests {
			t.Fatalf("cell %d: distribution count %d/%d != requests %d",
				i, o.Cost.Latency.Count, o.Cost.Hops.Count, o.Cost.Requests)
		}
	}
	for _, workers := range []int{2, 8, 0} {
		got := Sweep(recorderGrid(5), workers)
		for i := range got {
			if got[i].Err != nil {
				t.Fatalf("workers %d cell %d: %v", workers, i, got[i].Err)
			}
			g, w := fmt.Sprintf("%#v", got[i].Cost), fmt.Sprintf("%#v", want[i].Cost)
			if g != w {
				t.Errorf("workers %d cell %d: instrumented result diverged\n got: %s\nwant: %s", workers, i, g, w)
			}
		}
	}
}

// TestRecorderDistributionsConsistent cross-checks the distribution
// snapshots against the aggregate counters on every protocol adapter in
// both workload modes: counts equal Requests, the streaming mean equals
// TotalLatency/Requests, the hop maximum equals MaxHops, and the
// quantiles are monotone.
func TestRecorderDistributionsConsistent(t *testing.T) {
	const n, perNode = 12, 16
	for _, mode := range []string{"closed", "static"} {
		w := NewClosedLoop(perNode).MustBuild()
		if mode == "static" {
			w = NewStatic(workload.Poisson(n, 0.7, 60, 3)).MustBuild()
		}
		for _, p := range []Protocol{Arrow{}, Centralized{}, NTA{}} {
			rec := stats.NewDistRecorder()
			cost, err := p.Run(Instance{
				Graph:    graph.Complete(n),
				Tree:     tree.BalancedBinary(n),
				Root:     0,
				Workload: w,
				Recorder: rec,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name(), mode, err)
			}
			if cost.Latency.Count != cost.Requests || cost.Hops.Count != cost.Requests {
				t.Errorf("%s/%s: distribution counts %d/%d, requests %d",
					p.Name(), mode, cost.Latency.Count, cost.Hops.Count, cost.Requests)
			}
			if cost.Requests > 0 {
				if got, want := cost.Latency.Mean, cost.AvgLatency(); math.Abs(got-want) > 1e-9*math.Max(1, want) {
					t.Errorf("%s/%s: streaming mean %v != TotalLatency/Requests %v", p.Name(), mode, got, want)
				}
			}
			if int(cost.Hops.Max) != cost.MaxHops {
				t.Errorf("%s/%s: hop distribution max %d != MaxHops %d",
					p.Name(), mode, cost.Hops.Max, cost.MaxHops)
			}
			for _, d := range []stats.Dist{cost.Latency, cost.Hops} {
				if d.P50 > d.P90 || d.P90 > d.P99 || d.P99 > d.P999 || d.P999 > d.Max || d.Min > d.P50 {
					t.Errorf("%s/%s: quantiles not monotone: %+v", p.Name(), mode, d)
				}
			}
		}
	}
}

// TestRecorderMemoryIndependentOfRequests is the paper-scale memory
// pin: a closed-loop run at the paper's 100k requests per node streams
// every completion through the recorder, yet the histograms' bucket
// storage is what one request at the run's largest latency and hop count
// needs — per-request observability without per-request storage. (A
// histogram's storage is sized by its largest value, so the one-request
// recorder records the big run's maxima.)
func TestRecorderMemoryIndependentOfRequests(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run")
	}
	const n, perNode = 4, 100000
	big := stats.NewDistRecorder()
	cost, err := NTA{}.Run(Instance{
		Graph:    graph.Complete(n),
		Workload: NewClosedLoop(perNode).MustBuild(),
		Recorder: big,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(n * perNode); cost.Requests != want || big.Latency.Count() != want {
		t.Fatalf("completed %d requests, recorded %d, want %d", cost.Requests, big.Latency.Count(), want)
	}
	small := stats.NewDistRecorder()
	small.RecordRequest(big.Latency.Max(), int(big.Hops.Max()))
	if big.Latency.Buckets() != small.Latency.Buckets() || big.Hops.Buckets() != small.Hops.Buckets() {
		t.Errorf("histogram storage grew with request count: %d/%d buckets vs %d/%d",
			big.Latency.Buckets(), big.Hops.Buckets(), small.Latency.Buckets(), small.Hops.Buckets())
	}
}

func sequentialInstance(n, requests int) Instance {
	return Instance{
		Graph:    graph.Complete(n),
		Tree:     tree.BalancedBinary(n),
		Root:     0,
		Workload: NewStatic(workload.Sequential(n, requests, 50, 9)).MustBuild(),
	}
}

// TestAdaptersAgreeOnSequentialOrder: with requests spaced far apart
// every protocol must queue in issue order.
func TestAdaptersAgreeOnSequentialOrder(t *testing.T) {
	inst := sequentialInstance(16, 12)
	for _, p := range []Protocol{Arrow{}, NTA{}, Centralized{}} {
		cost, err := p.Run(inst)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if cost.Requests != 12 {
			t.Errorf("%s: completed %d of 12", p.Name(), cost.Requests)
		}
		if !queuing.ValidOrder(cost.Order, 12) {
			t.Fatalf("%s: invalid order %v", p.Name(), cost.Order)
		}
		for i, id := range cost.Order {
			if id != i {
				t.Errorf("%s: position %d queued request %d, want %d", p.Name(), i, id, i)
			}
		}
	}
}

// TestClosedLoopAdapters: every protocol's loop adapter completes
// PerNode*n requests and reports the figure metrics, with reply traffic
// split from queue traffic.
func TestClosedLoopAdapters(t *testing.T) {
	const n, perNode = 15, 20
	inst := Instance{
		Graph:    graph.Complete(n),
		Tree:     tree.BalancedBinary(n),
		Root:     0,
		Workload: NewClosedLoop(perNode).MustBuild(),
	}
	for _, p := range []Protocol{Arrow{}, Centralized{}, NTA{}} {
		cost, err := p.Run(inst)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if cost.Requests != n*perNode {
			t.Errorf("%s: completed %d of %d", p.Name(), cost.Requests, n*perNode)
		}
		if cost.Makespan <= 0 || cost.AvgLatency() <= 0 {
			t.Errorf("%s: degenerate cost %+v", p.Name(), cost)
		}
		if cost.ReplyHops <= 0 {
			t.Errorf("%s: closed-loop run reported no reply traffic: %+v", p.Name(), cost)
		}
		if cost.QueueHops <= 0 {
			t.Errorf("%s: closed-loop run reported no queue traffic: %+v", p.Name(), cost)
		}
	}
}

// TestEmptyStaticWorkloadStaysStatic: a generator that produced no
// requests must run as an empty static set, not be reclassified as a
// closed-loop workload (the nil-slice footgun), and a zero Workload is
// not closed either.
func TestEmptyStaticWorkloadStaysStatic(t *testing.T) {
	if NewStatic(nil).MustBuild().Closed() || (Workload{}).Closed() {
		t.Fatal("empty workloads must not be closed-loop")
	}
	if !NewClosedLoop(1).MustBuild().Closed() {
		t.Fatal("NewClosedLoop(1) must be closed-loop")
	}
	inst := Instance{
		Graph:    graph.Complete(6),
		Tree:     tree.BalancedBinary(6),
		Root:     0,
		Workload: NewStatic(nil).MustBuild(),
	}
	for _, p := range []Protocol{Arrow{}, NTA{}, Centralized{}} {
		cost, err := p.Run(inst)
		if err != nil {
			t.Fatalf("%s: empty static set errored: %v", p.Name(), err)
		}
		if cost.Requests != 0 || cost.QueueHops != 0 {
			t.Errorf("%s: empty set produced traffic: %+v", p.Name(), cost)
		}
		// The ambiguous workload — no set, no positive PerNode (e.g. a
		// closed-loop experiment invoked with PerNode 0) — must error,
		// not run as an accidental empty static set.
		for _, w := range []Workload{{}, {PerNode: -1}} {
			bad := inst
			bad.Workload = w
			if _, err := p.Run(bad); err == nil {
				t.Errorf("%s: ambiguous workload %+v did not error", p.Name(), w)
			}
		}
	}
}

// TestAdapterTopologyErrors: missing topology inputs fail with a
// descriptive error rather than wrong numbers, in both workload modes.
func TestAdapterTopologyErrors(t *testing.T) {
	for _, w := range []Workload{NewClosedLoop(5).MustBuild(), NewStatic(workload.OneShot(8, 2, 1)).MustBuild()} {
		for _, p := range []Protocol{NTA{}, Centralized{}} {
			if _, err := p.Run(Instance{Workload: w}); err == nil {
				t.Errorf("%s: expected error for nil graph (closed=%v)", p.Name(), w.Closed())
			}
		}
		if _, err := (Arrow{}).Run(Instance{Workload: w}); err == nil {
			t.Errorf("arrow: expected error for nil tree (closed=%v)", w.Closed())
		}
	}
}

// TestSweepErrorPropagation: a failing cell surfaces through FirstError
// without disturbing sibling cells.
func TestSweepErrorPropagation(t *testing.T) {
	good := sequentialInstance(8, 4)
	bad := Instance{Workload: NewClosedLoop(2).MustBuild()} // nil graph: NTA must error
	outs := Sweep([]Cell{
		{Protocol: Arrow{}, Instance: good},
		{Protocol: NTA{}, Instance: bad},
		{Protocol: Arrow{}, Instance: good},
	}, 2)
	if err := FirstError(outs); err == nil {
		t.Fatal("expected sweep error")
	}
	if outs[0].Err != nil || outs[2].Err != nil {
		t.Error("healthy cells must not fail")
	}
	if outs[1].Err == nil {
		t.Error("failing cell lost its error")
	}
}

// TestGridOrder: Grid is instance-major and deterministic.
func TestGridOrder(t *testing.T) {
	a := sequentialInstance(8, 4)
	a.Label = "a"
	b := sequentialInstance(8, 4)
	b.Label = "b"
	cells := Grid([]Instance{a, b}, Arrow{}, NTA{})
	want := []struct{ label, proto string }{
		{"a", "arrow"}, {"a", "nta"}, {"b", "arrow"}, {"b", "nta"},
	}
	if len(cells) != len(want) {
		t.Fatalf("got %d cells, want %d", len(cells), len(want))
	}
	for i, w := range want {
		if cells[i].Instance.Label != w.label || cells[i].Protocol.Name() != w.proto {
			t.Errorf("cell %d = %s/%s, want %s/%s",
				i, cells[i].Instance.Label, cells[i].Protocol.Name(), w.label, w.proto)
		}
	}
}

// TestGridRejectsSharedRecorder: crossing a recording instance with a
// protocol column would share one accumulating recorder across
// concurrently swept cells; Grid must refuse eagerly.
func TestGridRejectsSharedRecorder(t *testing.T) {
	inst := sequentialInstance(8, 4)
	inst.Recorder = stats.NewDistRecorder()
	defer func() {
		if recover() == nil {
			t.Error("Grid accepted a shared Recorder across a protocol column")
		}
	}()
	Grid([]Instance{inst}, Arrow{}, NTA{})
}

// TestGridAllowsRecorderWithOneProtocol: a single-protocol column with
// per-instance recorders has no sharing, so recording instances pass.
func TestGridAllowsRecorderWithOneProtocol(t *testing.T) {
	a, b := sequentialInstance(8, 4), sequentialInstance(8, 4)
	a.Recorder = stats.NewDistRecorder()
	b.Recorder = stats.NewDistRecorder()
	if cells := Grid([]Instance{a, b}, Arrow{}); len(cells) != 2 {
		t.Errorf("got %d cells, want 2", len(cells))
	}
}

// TestGridRejectsRecorderSharedAcrossInstances: the instance axis is
// guarded too — one recorder reused by several instances would race
// even with a single protocol.
func TestGridRejectsRecorderSharedAcrossInstances(t *testing.T) {
	rec := stats.NewDistRecorder()
	a, b := sequentialInstance(8, 4), sequentialInstance(8, 4)
	a.Recorder = rec
	b.Recorder = rec
	defer func() {
		if recover() == nil {
			t.Error("Grid accepted one Recorder shared across instances")
		}
	}()
	Grid([]Instance{a, b}, Arrow{})
}

// TestParallelMap: every index is visited exactly once, for pool sizes
// below, at, and above the item count, and the error returned is the
// first in index order whatever order the calls finished in.
func TestParallelMap(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		const n = 100
		var visits [n]atomic.Int32
		err := ParallelMapErr(n, workers, func(i int) error {
			visits[i].Add(1)
			if i%40 == 7 {
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 7" {
			t.Errorf("workers %d: got error %v, want item 7's", workers, err)
		}
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Fatalf("workers %d: index %d visited %d times", workers, i, got)
			}
		}
	}
	if err := ParallelMapErr(0, 4, func(i int) error { return errors.New("fn called for n=0") }); err != nil {
		t.Error(err)
	}
}

// TestDeriveSeed: adjacent cells get decorrelated seeds.
func TestDeriveSeed(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := DeriveSeed(1, i)
		if seen[s] {
			t.Fatalf("duplicate derived seed at cell %d", i)
		}
		seen[s] = true
	}
	if DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Error("base seed must influence derived seeds")
	}
}

// TestIvyAdapterCost: the bench-only shim Ivy accounts a static run as
// path reversal does — a find at the owner completes locally, a remote
// one costs its chain.
func TestIvyAdapterCost(t *testing.T) {
	g := graph.Complete(4)
	set := queuing.NewSet([]queuing.Request{
		{Node: 0, Time: 0},  // at the initial owner: local
		{Node: 2, Time: 10}, // one chain hop to 0
		{Node: 2, Time: 30}, // local again (2 owns it now)
	})
	cost, err := Ivy{}.Run(Instance{Graph: g, Root: 0, Workload: NewStatic(set).MustBuild()})
	if err != nil {
		t.Fatal(err)
	}
	if cost.LocalCompletions != 2 {
		t.Errorf("local completions = %d, want 2", cost.LocalCompletions)
	}
	if cost.QueueHops != 1 {
		t.Errorf("queue hops = %d, want 1", cost.QueueHops)
	}
	if cost.MaxHops != 1 {
		t.Errorf("max hops = %d, want 1", cost.MaxHops)
	}
}

// TestIvyIsNTA pins the bench-only shim: Ivy{}.Run is NTA{}.Run under
// the name "ivy", field for field — distributions, per-object costs and
// fault counters included — on static, multi-object and faulted
// instances (nta's TestClosedLoopMatchesIvy covers the closed loop).
func TestIvyIsNTA(t *testing.T) {
	const n = 16
	g := graph.Complete(n)
	base := Instance{Graph: g, Root: 3, Latency: sim.AsyncUniform(4), Arbitration: sim.ArbRandom, Seed: 11}
	static, multi, faulted := base, base, base
	static.Workload = NewStatic(workload.Poisson(n, 0.8, 60, 5)).MustBuild()
	multi.Workload = NewClosedLoop(20).Objects(8).Zipf(1.1).MustBuild()
	multi.LinkTxTime = 1
	faulted.Workload = NewClosedLoop(30).MustBuild()
	faulted.Faults = &sim.FaultPlan{Events: sim.NodeChurn(n, nil, 1.5, 25, 20, 600, 7)}
	for _, c := range []struct {
		name string
		inst Instance
	}{{"static", static}, {"multi", multi}, {"faulted", faulted}} {
		run := func(p Protocol) Cost {
			inst := c.inst
			inst.Recorder = stats.NewDistRecorder()
			cost, err := p.Run(inst)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, p.Name(), err)
			}
			return cost
		}
		want, got := run(NTA{}), run(Ivy{})
		if c.name == "multi" && len(want.PerObject) != 8 || c.name == "faulted" && want.Dropped == 0 {
			t.Fatalf("%s: instance is vacuous: %+v", c.name, want)
		}
		if got.Protocol != "ivy" || want.Protocol != "nta" {
			t.Errorf("%s: protocols %q and %q, want ivy and nta", c.name, got.Protocol, want.Protocol)
		}
		got.Protocol = want.Protocol
		for o := range got.PerObject {
			got.PerObject[o].Protocol = want.PerObject[o].Protocol
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Ivy diverged from NTA:\n ivy %+v\n nta %+v", c.name, got, want)
		}
	}
}

// faultGrid builds closed-loop cells for every protocol under a shared
// read-only FaultPlan (node churn, plus tree-link churn for arrow), with
// a private recorder per cell.
func faultGrid(seed int64) []Cell {
	const n = 20
	g := graph.Complete(n)
	t := tree.BalancedBinary(n)
	nodePlan := &sim.FaultPlan{Events: sim.NodeChurn(n, nil, 1, 20, 15, 500, seed)}
	linkPlan := &sim.FaultPlan{Events: sim.LinkChurn(sim.TreeLinks(t), 1.5, 20, 15, 500, seed)}
	queuePlan := &sim.FaultPlan{Policy: sim.FaultQueue, Events: nodePlan.Events}
	var cells []Cell
	for i, plan := range []*sim.FaultPlan{nodePlan, queuePlan} {
		inst := Instance{
			Label:    fmt.Sprintf("faults=%d", i),
			Graph:    g,
			Tree:     t,
			Root:     0,
			Workload: NewClosedLoop(12).MustBuild(),
			Seed:     DeriveSeed(seed, i),
			Faults:   plan,
			Recorder: stats.NewDistRecorder(),
		}
		for _, p := range []Protocol{Arrow{}, Centralized{}, NTA{}} {
			c := inst
			c.Recorder = stats.NewDistRecorder()
			cells = append(cells, Cell{Protocol: p, Instance: c})
		}
	}
	arrowInst := Instance{
		Label:    "faults=tree-links",
		Tree:     t,
		Root:     0,
		Workload: NewClosedLoop(12).MustBuild(),
		Seed:     DeriveSeed(seed, 9),
		Faults:   linkPlan,
		Recorder: stats.NewDistRecorder(),
	}
	cells = append(cells, Cell{Protocol: Arrow{}, Instance: arrowInst})
	return cells
}

// TestSweepDeterministicWithFaults mirrors the worker-count determinism
// guarantee on faulty cells: with Instance.Faults set (shared read-only
// plans across cells), the full Cost — fault counters, repair
// accounting, availability, and the distribution snapshots — is
// byte-identical for every worker count.
func TestSweepDeterministicWithFaults(t *testing.T) {
	want := Sweep(faultGrid(3), 1)
	if err := FirstError(want); err != nil {
		t.Fatalf("sequential faulty sweep failed: %v", err)
	}
	anyFaults := false
	for i, o := range want {
		if o.Cost.Dropped > 0 || o.Cost.Deferred > 0 {
			anyFaults = true
		}
		if o.Cost.Availability < 0 || o.Cost.Availability > 1 {
			t.Fatalf("cell %d: availability %v out of range", i, o.Cost.Availability)
		}
	}
	if !anyFaults {
		t.Fatal("fault grid produced no fault activity; the test is vacuous")
	}
	for _, workers := range []int{2, 4, 0} {
		got := Sweep(faultGrid(3), workers)
		for i := range got {
			if got[i].Err != nil {
				t.Fatalf("workers %d cell %d: %v", workers, i, got[i].Err)
			}
			g, w := fmt.Sprintf("%#v", got[i].Cost), fmt.Sprintf("%#v", want[i].Cost)
			if g != w {
				t.Errorf("workers %d cell %d: faulty sweep diverged\n got: %s\nwant: %s", workers, i, g, w)
			}
		}
	}
}

// TestFaultsRequireClosedLoop: every adapter refuses a static workload
// with faults rather than silently ignoring the plan.
func TestFaultsRequireClosedLoop(t *testing.T) {
	plan := &sim.FaultPlan{Events: []sim.FaultEvent{
		{At: 1, Kind: sim.NodeDown, U: 1}, {At: 5, Kind: sim.NodeUp, U: 1},
	}}
	inst := sequentialInstance(8, 4)
	inst.Faults = plan
	for _, p := range []Protocol{Arrow{}, NTA{}, Centralized{}} {
		if _, err := p.Run(inst); err == nil {
			t.Errorf("%s: static workload with faults accepted", p.Name())
		}
	}
}

// TestLinkTxTimeRequiresClosedLoop: every adapter refuses a static
// workload with a link capacity rather than silently running the
// infinite-capacity model under a finite-capacity label.
func TestLinkTxTimeRequiresClosedLoop(t *testing.T) {
	inst := sequentialInstance(8, 4)
	inst.LinkTxTime = 1
	for _, p := range []Protocol{Arrow{}, NTA{}, Centralized{}} {
		_, err := p.Run(inst)
		var ce *sim.ConfigError
		if !errors.As(err, &ce) || ce.Field != "LinkTxTime" {
			t.Errorf("%s: static workload with LinkTxTime 1: got error %v, want a *sim.ConfigError naming LinkTxTime", p.Name(), err)
		}
	}
}
