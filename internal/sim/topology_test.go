package sim

import (
	"sync"
	"testing"

	"repro/internal/graph"
)

// TestCompleteTopologyMatchesMetric pins the implicit complete metric
// against the materialized one on the pairs both can answer.
func TestCompleteTopologyMatchesMetric(t *testing.T) {
	n := 9
	m := NewMetricTopology(graph.Complete(n))
	c := NewCompleteTopology(n)
	if c.NumNodes() != m.NumNodes() || c.NumLinks() != m.NumLinks() {
		t.Fatalf("size mismatch: (%d,%d) vs (%d,%d)", c.NumNodes(), c.NumLinks(), m.NumNodes(), m.NumLinks())
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			uu, vv := graph.NodeID(u), graph.NodeID(v)
			cw, cok := c.Latency(uu, vv)
			mw, mok := m.Latency(uu, vv)
			if cw != mw || cok != mok {
				t.Fatalf("Latency(%d,%d) = (%d,%v), want (%d,%v)", u, v, cw, cok, mw, mok)
			}
			if cok {
				if c.Hops(uu, vv) != m.Hops(uu, vv) {
					t.Fatalf("Hops(%d,%d) mismatch", u, v)
				}
				if c.LinkIndex(uu, vv) != m.LinkIndex(uu, vv) {
					t.Fatalf("LinkIndex(%d,%d) mismatch", u, v)
				}
			}
			if c.Dist(uu, vv) != m.Dist(uu, vv) {
				t.Fatalf("Dist(%d,%d) mismatch", u, v)
			}
		}
	}
}

// TestMetricTopologyHopsMatchShortestPath: a weighted metric's hop count
// for every ordered pair is the edge count of the path ShortestPath
// returns, although NewMetricTopology reads all of a source's counts off
// one shortest-path tree. Disconnected pairs count 0 hops on unit and
// weighted graphs alike.
func TestMetricTopologyHopsMatchShortestPath(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		g := graph.RandomGeometric(24, 0.4, 8, seed)
		m := NewMetricTopology(g)
		for i := 0; i < g.NumNodes(); i++ {
			for j := 0; j < g.NumNodes(); j++ {
				u, v := graph.NodeID(i), graph.NodeID(j)
				path, _ := g.ShortestPath(u, v)
				if got, want := m.Hops(u, v), len(path)-1; got != want {
					t.Fatalf("seed %d: Hops(%d,%d) = %d, ShortestPath has %d edges", seed, u, v, got, want)
				}
			}
		}
	}
	for _, w := range []graph.Weight{1, 3} {
		g := graph.New(4)
		g.AddEdge(0, 1, w)
		g.AddEdge(1, 2, w)
		m := NewMetricTopology(g)
		if h := m.Hops(0, 2); h != 2 {
			t.Errorf("weight %d: Hops(0,2) = %d, want 2", w, h)
		}
		if h := m.Hops(0, 3); h != 0 {
			t.Errorf("weight %d: Hops to a disconnected node = %d, want 0", w, h)
		}
	}
}

// TestMetricTopologySharesGraphMetric pins the one matrix per graph: a
// metric built on a graph whose AllPairs is memoized adopts that matrix
// and allocates only itself, and an AddEdge — here a shortcut that
// changes distances — gives later metrics the new distances while an
// earlier one keeps its own.
func TestMetricTopologySharesGraphMetric(t *testing.T) {
	g := graph.Path(6)
	before := NewMetricTopology(g)
	if &before.dist[0][0] != &g.AllPairs()[0][0] {
		t.Fatal("NewMetricTopology did not adopt the graph's memoized matrix")
	}
	allocs := testing.AllocsPerRun(100, func() { NewMetricTopology(g) })
	if allocs > 1 {
		t.Errorf("NewMetricTopology on a memoized unit graph: %v allocations, want at most 1 (the struct)", allocs)
	}
	g.AddEdge(0, 5, 1)
	after := NewMetricTopology(g)
	if d, h := after.Dist(0, 5), after.Hops(0, 5); d != 1 || h != 1 {
		t.Errorf("after the shortcut: Dist(0,5), Hops(0,5) = %d, %d, want 1, 1", d, h)
	}
	if d, h := before.Dist(0, 5), before.Hops(0, 5); d != 5 || h != 5 {
		t.Errorf("a metric built before AddEdge: Dist(0,5), Hops(0,5) = %d, %d, want its own 5, 5", d, h)
	}
}

// TestMetricTopologyConcurrentBuilds: sweep workers build metrics on one
// shared graph at once. Under -race this checks the memo's publication;
// either way every builder must read the same distances.
func TestMetricTopologyConcurrentBuilds(t *testing.T) {
	g := graph.RandomGeometric(20, 0.4, 8, 5)
	want := make([][]graph.Weight, g.NumNodes())
	for i := range want {
		want[i] = g.ShortestFrom(graph.NodeID(i))
	}
	var wg sync.WaitGroup
	got := make([]*MetricTopology, 2)
	for k := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[k] = NewMetricTopology(g)
		}()
	}
	wg.Wait()
	for k, m := range got {
		for i := range want {
			for j, d := range want[i] {
				if m.Dist(graph.NodeID(i), graph.NodeID(j)) != d {
					t.Fatalf("builder %d: Dist(%d,%d) = %d, want %d", k, i, j, m.Dist(graph.NodeID(i), graph.NodeID(j)), d)
				}
			}
		}
	}
}
