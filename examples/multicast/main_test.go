package main

// Example pins the multicast report: arrow.Run on the 24-node balanced
// binary tree is deterministic, so the delivery order and both costs
// print the same on every run.
func Example() {
	main()
	// Output:
	// 24 multicast messages from 15 senders
	//
	// global delivery order (same at every receiver):
	//   seq  0: message m1 from node v5 (sent t=1)
	//   seq  1: message m3 from node v5 (sent t=4)
	//   seq  2: message m2 from node v14 (sent t=1)
	//   seq  3: message m5 from node v13 (sent t=5)
	//   seq  4: message m0 from node v16 (sent t=0)
	//   seq  5: message m4 from node v0 (sent t=5)
	//   seq  6: message m6 from node v4 (sent t=30)
	//   seq  7: message m8 from node v9 (sent t=31)
	//   ...
	//   seq 22: message m20 from node v9 (sent t=93)
	//   seq 23: message m21 from node v18 (sent t=93)
	//
	// sequencing cost (total latency): arrow=68 centralized=88
	// sequencing makespan:             arrow=100 centralized=99
	// avg per-message latency:         arrow=2.83 centralized=3.67
}
