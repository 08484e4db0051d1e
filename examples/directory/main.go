// Distributed directory for a mobile object (the Demmer–Herlihy arrow
// directory [4], as in the Aleph toolkit): nodes request exclusive access
// to a shared object; the arrow queue orders the requests; the object then
// hops from each requester to its successor. The example measures how far
// the object travels under arrow's ordering versus a clairvoyant optimal
// route, and shows the protocol's locality: consecutive holders tend to be
// close on the tree.
package main

import (
	"fmt"
	"log"

	"repro/internal/arrow"
	"repro/internal/graph"
	"repro/internal/opt"
	"repro/internal/queuing"
	"repro/internal/tree"
	"repro/internal/tsp"
	"repro/internal/workload"
)

func main() {
	// A 64-node random geometric network — machines spread over a space
	// with local links, the setting where object locality pays off.
	g := graph.RandomGeometric(64, 0.3, 8, 3)
	t, err := tree.PrimMST(g, 0)
	if err != nil {
		log.Fatal(err)
	}
	s, _ := t.Stretch(g)
	fmt.Printf("network: %d nodes; MST spanning tree, D=%d, stretch=%.2f\n",
		g.NumNodes(), t.Diameter(), s)

	// A hotspot access pattern: half the accesses hit one popular object
	// region, the rest are scattered.
	set := workload.Hotspot(g.NumNodes(), 14, 0.5, 100, 5)
	fmt.Printf("%d object-access requests\n", len(set))

	res, err := arrow.Run(t, set, arrow.Options{Root: t.Root()})
	if err != nil {
		log.Fatal(err)
	}

	// The object starts at the root and visits requesters in queue order.
	var travelTree, travelGraph graph.Weight
	prev := t.Root()
	dg := g.AllPairs()
	fmt.Println("\nobject itinerary:")
	for i, id := range res.Order {
		v := set[id].Node
		dT := t.Dist(prev, v)
		travelTree += dT
		travelGraph += dg[prev][v]
		if i < 6 {
			fmt.Printf("  v%-3d -> v%-3d  (tree dist %d, graph dist %d)\n",
				prev, v, dT, dg[prev][v])
		} else if i == 6 {
			fmt.Println("  ...")
		}
		prev = v
	}

	// Clairvoyant route: optimal TSP path over the requesters (object
	// free to take shortest graph routes in the best possible order).
	nodes := append([]graph.NodeID{t.Root()}, requestNodes(set)...)
	cost := func(i, j int) int64 { return dg[nodes[i]][nodes[j]] }
	_, optTravel, err := tsp.OptimalPath(len(nodes), cost)
	if err != nil {
		log.Fatal(err)
	}

	bounds := opt.Compute(g, t.Root(), set)
	fmt.Printf("\nobject travel, arrow order over tree:   %d\n", travelTree)
	fmt.Printf("object travel, arrow order over graph:  %d\n", travelGraph)
	fmt.Printf("object travel, clairvoyant optimal:     %d\n", optTravel)
	if bounds.Exact {
		fmt.Printf("queuing latency: arrow=%d, optimal=%d (exact)\n", res.TotalLatency, bounds.Lower)
	} else {
		fmt.Printf("queuing latency: arrow=%d, optimal at most %d (not certified)\n",
			res.TotalLatency, bounds.Upper)
	}
}

func requestNodes(set queuing.Set) []graph.NodeID {
	out := make([]graph.NodeID, len(set))
	for i, r := range set {
		out[i] = r.Node
	}
	return out
}
