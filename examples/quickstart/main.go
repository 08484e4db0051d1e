// Quickstart: build a network, pick a spanning tree, run the arrow
// protocol on a batch of concurrent queuing requests, and inspect the
// total order and its cost against the optimal offline bound.
package main

import (
	"fmt"
	"log"

	"repro/internal/arrow"
	"repro/internal/graph"
	"repro/internal/opt"
	"repro/internal/tree"
	"repro/internal/workload"
)

func main() {
	// 1. The network: a 6x6 grid with unit-latency links.
	g := graph.Grid(6, 6)

	// 2. The pre-selected spanning tree: a BFS tree from the grid center
	//    (any spanning tree works; stretch and diameter drive the cost).
	center, _ := g.Center()
	t, err := tree.BFS(g, center)
	if err != nil {
		log.Fatal(err)
	}
	s, _ := t.Stretch(g)
	fmt.Printf("network: %d nodes, %d edges; tree diameter D=%d, stretch s=%.2f\n",
		g.NumNodes(), g.NumEdges(), t.Diameter(), s)

	// 3. A workload: 12 nodes request simultaneously (maximum contention).
	set := workload.OneShot(g.NumNodes(), 12, 7)

	// 4. Run the protocol (synchronous unit-latency model).
	res, err := arrow.Run(t, set, arrow.Options{Root: t.Root()})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nqueuing order (each node learns only its successor):")
	prev := "⊥ (queue head)"
	for _, id := range res.Order {
		c := res.Completions[id]
		fmt.Printf("  %-18s <- r%d at v%-3d (latency %2d, %d hops)\n",
			prev, id, c.Req.Node, c.Latency(), c.Hops)
		prev = fmt.Sprintf("r%d", id)
	}

	// 5. Compare against the clairvoyant optimal offline ordering.
	bounds := opt.Compute(g, t.Root(), set, opt.DistOfGraph(g))
	fmt.Printf("\narrow total latency: %d\n", res.TotalLatency)
	if bounds.Exact {
		fmt.Printf("optimal offline:     %d (exact)\n", bounds.Lower)
		fmt.Printf("competitive ratio:   %.2f (theory bound O(s log D))\n",
			opt.Ratio(res.TotalLatency, bounds.Lower))
	} else {
		fmt.Printf("optimal offline:     at most %d (estimate %d: ManhattanMST/12, uncertified, can exceed the optimum)\n",
			bounds.Upper, bounds.Lower)
	}
}
