package sim

import (
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
