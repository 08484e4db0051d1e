// Distributed counting — the paper's Section 1 application: "it can be
// used in distributed counting by passing an integer counter down the
// queue". Every node performs fetch-and-increment operations on a shared
// counter with no central server: each operation joins the arrow queue,
// and the counter value travels from each operation to its successor.
// Every participant ends up with a unique, gap-free counter value.
package main

import (
	"fmt"
	"log"
	"sync"

	"repro/internal/graph"
	"repro/internal/runtime"
	"repro/internal/tree"
)

const (
	numNodes    = 20
	incsPerNode = 5
	totalIncs   = numNodes * incsPerNode
)

func main() {
	t := tree.BalancedBinary(numNodes)
	net := runtime.New(t, 0, runtime.Options{})
	net.Start()

	// The counter travels down the distributed queue exactly like the
	// mutex token: when operation p's holder learns its successor r, it
	// hands the incremented counter over. The manager below stands in
	// for that predecessor-to-successor message.
	type grant struct {
		value int64
	}
	var (
		mu    sync.Mutex
		gates = map[int64]chan grant{}
	)
	gateFor := func(reqID int64) chan grant {
		mu.Lock()
		defer mu.Unlock()
		ch, ok := gates[reqID]
		if !ok {
			ch = make(chan grant, 1)
			gates[reqID] = ch
		}
		return ch
	}
	managerDone := make(chan struct{})
	passed := make(chan int64) // holders hand the counter back here
	go func() {
		defer close(managerDone)
		succ := map[int64]int64{}
		cur := int64(-1)
		counter := int64(0)
		served := 0
		completions := net.Completions()
		for served < totalIncs {
			if next, ok := succ[cur]; ok {
				gateFor(next) <- grant{value: counter}
				counter = <-passed // holder returns counter+1
				cur = next
				served++
				continue
			}
			c, ok := <-completions
			if !ok {
				log.Fatal("completions closed early")
			}
			succ[c.PredID] = c.ReqID
		}
	}()

	results := make([][]int64, numNodes)
	var wg sync.WaitGroup
	for v := 0; v < numNodes; v++ {
		wg.Add(1)
		go func(v graph.NodeID) {
			defer wg.Done()
			for i := 0; i < incsPerNode; i++ {
				reqID, err := net.Submit(v, 0)
				if err != nil {
					log.Fatal(err)
				}
				g := <-gateFor(reqID) // counter arrives from predecessor
				results[v] = append(results[v], g.value)
				passed <- g.value + 1
			}
		}(graph.NodeID(v))
	}
	wg.Wait()
	<-managerDone
	net.Stop()

	// Verify: all issued values are distinct and cover 0..totalIncs-1.
	seen := make([]bool, totalIncs)
	for v, vals := range results {
		for _, x := range vals {
			if x < 0 || x >= totalIncs || seen[x] {
				log.Fatalf("node %d got duplicate/out-of-range value %d", v, x)
			}
			seen[x] = true
		}
	}
	fmt.Printf("%d fetch-and-increment ops across %d nodes: all values unique and gap-free\n",
		totalIncs, numNodes)
	fmt.Printf("node 0 drew: %v\n", results[0])
	fmt.Printf("node %d drew: %v\n", numNodes-1, results[numNodes-1])
}
