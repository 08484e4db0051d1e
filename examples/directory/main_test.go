package main

// Example pins the directory example's report: its 14 requests are within
// the exact solver's reach, so the queuing optimum prints as exact (86).
func Example() {
	main()
	// Output:
	// network: 64 nodes; MST spanning tree, D=79, stretch=13.00
	// 14 object-access requests
	//
	// object itinerary:
	//   v0   -> v42   (tree dist 8, graph dist 7)
	//   v42  -> v0    (tree dist 8, graph dist 7)
	//   v0   -> v47   (tree dist 9, graph dist 7)
	//   v47  -> v31   (tree dist 35, graph dist 12)
	//   v31  -> v42   (tree dist 44, graph dist 13)
	//   v42  -> v7    (tree dist 2, graph dist 2)
	//   ...
	//
	// object travel, arrow order over tree:   226
	// object travel, arrow order over graph:  96
	// object travel, clairvoyant optimal:     52
	// queuing latency: arrow=226, optimal=86 (exact)
}
