package main

// Example pins the quickstart's report: the 12-request one-shot instance is
// within the exact solver's reach, so the optimum prints as exact (19).
func Example() {
	main()
	// Output:
	// network: 36 nodes, 60 edges; tree diameter D=11, stretch s=7.00
	//
	// queuing order (each node learns only its successor):
	//   ⊥ (queue head)     <- r4 at v8   (latency  1, 1 hops)
	//   r4                 <- r5 at v9   (latency  1, 1 hops)
	//   r5                 <- r6 at v10  (latency  1, 1 hops)
	//   r6                 <- r1 at v1   (latency  4, 4 hops)
	//   r1                 <- r0 at v0   (latency  1, 1 hops)
	//   r0                 <- r2 at v3   (latency  3, 3 hops)
	//   r2                 <- r3 at v6   (latency  4, 4 hops)
	//   r3                 <- r7 at v16  (latency  5, 5 hops)
	//   r7                 <- r9 at v22  (latency  1, 1 hops)
	//   r9                 <- r11 at v33  (latency  5, 5 hops)
	//   r11                <- r8 at v18  (latency  7, 7 hops)
	//   r8                 <- r10 at v24  (latency  1, 1 hops)
	//
	// arrow total latency: 34
	// optimal offline:     19 (exact)
	// competitive ratio:   1.79 (theory bound O(s log D))
}
