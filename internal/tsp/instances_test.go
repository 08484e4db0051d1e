package tsp_test

import (
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/graph"
	"repro/internal/opt"
	"repro/internal/queuing"
	"repro/internal/tsp"
	"repro/internal/workload"
)

// TestTwoOptPathMatchesOracleOnInstances checks TwoOptPath against the
// O(n³) oracle on the cost matrices opt.Compute hands it for the
// instances the experiments build: the Theorem 4.1 sweep of
// -exp lowerbound, cmd/lowerbound's Figure 9 instance at every depth it
// documents, and the ratio experiment's default configurations.
func TestTwoOptPathMatchesOracleOnInstances(t *testing.T) {
	type instance struct {
		name string
		g    *graph.Graph
		root graph.NodeID
		set  queuing.Set
	}
	var insts []instance
	for logD := 3; logD <= 8; logD++ {
		inst, err := workload.LowerBound(logD, workload.DefaultK(1<<logD))
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, instance{"lowerbound", graph.Path(inst.D + 1), inst.Root, inst.Set})
	}
	for k := 2; k <= 6; k++ {
		inst, err := workload.LowerBound(6, k)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, instance{"lowerbound-logd6", graph.Path(inst.D + 1), inst.Root, inst.Set})
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, cfg := range analysis.DefaultRatioConfigs(seed) {
			insts = append(insts, instance{"ratio-" + cfg.Name, cfg.Graph, 0, cfg.Set})
		}
	}
	for _, in := range insts {
		n := len(in.set) + 1
		c := opt.CostAdapter(in.set, in.root, queuing.CO(opt.DistOfGraph(in.g)))
		order, cost := tsp.TwoOptPath(n, c)
		wantOrder, wantCost := tsp.TwoOptPathOracle(n, c)
		if cost != wantCost || !slices.Equal(order, wantOrder) {
			t.Errorf("%s (%d requests): TwoOptPath cost %d, oracle %d; orders equal %v",
				in.name, len(in.set), cost, wantCost, slices.Equal(order, wantOrder))
		}
	}
}
